//! Executable counterparts of the paper's correctness results:
//!
//! * Theorem 1 — events equivalent w.r.t. the equivalence keys generate
//!   equivalent provenance trees.
//! * Theorem 3 — the compressed tables encode exactly the trees semi-naïve
//!   evaluation produces (here: the ground-truth recorder).
//! * Theorem 5 — the query algorithm returns the correct full tree for
//!   every stored output.
//!
//! Randomized topologies and workloads (seeded in-tree PRNG, so every
//! case reproduces) are driven through all schemes and compared against
//! the ground truth.

use dpc::netsim::topo;
use dpc::prelude::*;
use dpc_common::{Rng, SeededRng};

const CASES: u64 = 24;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Build a line runtime with routes from every node toward every node.
fn full_line<R: ProvRecorder>(len: usize, rec: R) -> Runtime<R> {
    let net = topo::line(len, Link::STUB_STUB);
    let mut rt = forwarding::make_runtime(net, rec);
    for s in 0..len as u32 {
        for d in 0..len as u32 {
            if s == d {
                continue;
            }
            let next = if d > s { s + 1 } else { s - 1 };
            rt.install(forwarding::route(n(s), n(d), n(next))).unwrap();
        }
    }
    rt
}

fn random_payload(rng: &mut SeededRng) -> String {
    let len = rng.random_range(1..13u64) as usize;
    (0..len)
        .map(|_| (b'a' + rng.random_range(0..26u32) as u8) as char)
        .collect()
}

/// One randomized packet: (entry node, destination, payload) with
/// `src != dst`.
fn random_packet(rng: &mut SeededRng, len: u32) -> (u32, u32, String) {
    let src = rng.random_range(0..len);
    let dst = loop {
        let d = rng.random_range(0..len);
        if d != src {
            break d;
        }
    };
    (src, dst, random_payload(rng))
}

/// Theorem 1: equal key valuations give equivalent trees; different
/// destinations (a key attribute) give non-equivalent trees.
#[test]
fn theorem1_key_equality_implies_tree_equivalence() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x21_000 + case);
        let (src, dst, payload) = random_packet(&mut rng, 6);
        let other_payload = random_payload(&mut rng);
        let mut rt = full_line(6, GroundTruthRecorder::new());
        let a = forwarding::packet(n(src), n(src), n(dst), payload.clone());
        let b = forwarding::packet(n(src), n(src), n(dst), format!("{other_payload}!"));
        rt.inject(a.clone()).unwrap();
        rt.run().unwrap();
        rt.inject(b.clone()).unwrap();
        rt.run().unwrap();
        let keys = equivalence_keys(&programs::packet_forwarding());
        assert!(keys.equivalent(&a, &b).unwrap());
        let trees = rt.recorder().trees();
        assert_eq!(trees.len(), 2);
        assert!(trees[0].2.equivalent(&trees[1].2));
    }
}

/// Theorems 3+5 for Advanced: every output's queried tree equals the
/// ground truth, over random multi-packet workloads.
#[test]
fn theorem3_and_5_advanced_round_trip() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x22_000 + case);
        let count = rng.random_range(1..12u64) as usize;
        let packets: Vec<_> = (0..count).map(|_| random_packet(&mut rng, 5)).collect();
        let keys = equivalence_keys(&programs::packet_forwarding());
        let rec = TeeRecorder::new(AdvancedRecorder::new(5, keys), GroundTruthRecorder::new());
        let mut rt = full_line(5, rec);
        for (s, d, p) in &packets {
            rt.inject(forwarding::packet(n(*s), n(*s), n(*d), p.clone()))
                .unwrap();
            rt.run().unwrap();
        }
        assert_eq!(rt.outputs().len(), packets.len());
        assert_eq!(rt.recorder().primary.hmap_misses(), 0);
        let ctx = QueryCtx::from_runtime(&rt);
        for out in rt.outputs() {
            let got = query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid)
                .expect("queryable");
            let want = rt
                .recorder()
                .shadow
                .tree_for(&out.tuple, &out.evid)
                .expect("ground truth recorded");
            assert_eq!(&got.tree, want);
        }
    }
}

/// The same round trip for the inter-class layout (Section 5.4).
#[test]
fn theorem3_and_5_inter_class_round_trip() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x23_000 + case);
        let count = rng.random_range(1..10u64) as usize;
        let packets: Vec<_> = (0..count).map(|_| random_packet(&mut rng, 5)).collect();
        let keys = equivalence_keys(&programs::packet_forwarding());
        let rec = TeeRecorder::new(
            AdvancedRecorder::with_inter_class(5, keys),
            GroundTruthRecorder::new(),
        );
        let mut rt = full_line(5, rec);
        for (s, d, p) in &packets {
            rt.inject(forwarding::packet(n(*s), n(*s), n(*d), p.clone()))
                .unwrap();
            rt.run().unwrap();
        }
        let ctx = QueryCtx::from_runtime(&rt);
        for out in rt.outputs() {
            let got = query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid)
                .expect("queryable");
            let want = rt
                .recorder()
                .shadow
                .tree_for(&out.tuple, &out.evid)
                .expect("ground truth recorded");
            assert_eq!(&got.tree, want);
        }
    }
}

/// All three schemes agree with each other (and the oracle) on the
/// reconstructed tree of every output.
#[test]
fn schemes_agree_on_trees() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x24_000 + case);
        let count = rng.random_range(1..8u64) as usize;
        let packets: Vec<_> = (0..count).map(|_| random_packet(&mut rng, 4)).collect();
        let keys = equivalence_keys(&programs::packet_forwarding());
        let mut rt_e = full_line(
            4,
            TeeRecorder::new(ExspanRecorder::new(4), GroundTruthRecorder::new()),
        );
        let mut rt_b = full_line(4, BasicRecorder::new(4));
        let mut rt_a = full_line(4, AdvancedRecorder::new(4, keys));
        for (s, d, p) in &packets {
            for inj in [
                rt_e.inject(forwarding::packet(n(*s), n(*s), n(*d), p.clone())),
                rt_b.inject(forwarding::packet(n(*s), n(*s), n(*d), p.clone())),
                rt_a.inject(forwarding::packet(n(*s), n(*s), n(*d), p.clone())),
            ] {
                inj.unwrap();
            }
            rt_e.run().unwrap();
            rt_b.run().unwrap();
            rt_a.run().unwrap();
        }
        let ctx_e = QueryCtx::from_runtime(&rt_e);
        let ctx_b = QueryCtx::from_runtime(&rt_b);
        let ctx_a = QueryCtx::from_runtime(&rt_a);
        for (oe, (ob, oa)) in rt_e
            .outputs()
            .iter()
            .zip(rt_b.outputs().iter().zip(rt_a.outputs()))
        {
            let te = query_exspan(&ctx_e, &rt_e.recorder().primary, &oe.tuple)
                .unwrap()
                .tree;
            let tb = query_basic(&ctx_b, rt_b.recorder(), &ob.tuple)
                .unwrap()
                .tree;
            let ta = query_advanced(&ctx_a, rt_a.recorder(), &oa.tuple, &oa.evid)
                .unwrap()
                .tree;
            let truth = rt_e
                .recorder()
                .shadow
                .tree_for(&oe.tuple, &oe.evid)
                .unwrap();
            assert_eq!(&te, truth);
            assert_eq!(&tb, truth);
            assert_eq!(&ta, truth);
        }
    }
}

/// Key-hash soundness: events agreeing on keys hash equal; events
/// differing on a key attribute hash differently.
#[test]
fn key_hash_respects_definition2() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x25_000 + case);
        let (src, dst, p1) = random_packet(&mut rng, 6);
        let p2 = random_payload(&mut rng);
        let other_dst = rng.random_range(0..6u32);
        let keys = equivalence_keys(&programs::packet_forwarding());
        let a = forwarding::packet(n(src), n(src), n(dst), p1);
        let b = forwarding::packet(n(src), n(src), n(dst), p2);
        assert_eq!(keys.hash(&a).unwrap(), keys.hash(&b).unwrap());
        if other_dst != dst {
            let c = forwarding::packet(n(src), n(src), n(other_dst), "x");
            assert_ne!(keys.hash(&a).unwrap(), keys.hash(&c).unwrap());
        }
    }
}

/// Theorems 3+5 on the DNS application, against the ground truth.
#[test]
fn dns_advanced_round_trip() {
    use dpc::apps::dns;
    let mut rng = SeededRng::seed_from_u64(17);
    let tree = topo::tree(
        &mut rng,
        &topo::TreeParams {
            nodes: 40,
            ..topo::TreeParams::default()
        },
    );
    let keys = equivalence_keys(&programs::dns_resolution());
    let rec = TeeRecorder::new(AdvancedRecorder::new(40, keys), GroundTruthRecorder::new());
    let mut rt = dns::make_runtime(&tree, rec);
    let dep = dns::deploy(&mut rt, &tree, 12, &[tree.root]).unwrap();
    // Every URL twice: second resolution of each is compressed.
    for (i, (url, _, _)) in dep.urls.iter().enumerate() {
        rt.inject(dns::url_event(tree.root, url.clone(), i as i64))
            .unwrap();
        rt.run().unwrap();
        rt.inject(dns::url_event(tree.root, url.clone(), 1000 + i as i64))
            .unwrap();
        rt.run().unwrap();
    }
    assert_eq!(rt.outputs().len(), 24);
    assert_eq!(rt.recorder().primary.hmap_misses(), 0);
    let ctx = QueryCtx::from_runtime(&rt);
    for out in rt.outputs() {
        let got =
            query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid).expect("queryable");
        let want = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .expect("ground truth recorded");
        assert_eq!(&got.tree, want, "output {}", out.tuple);
    }
}

/// Section 5.5: after a slow-table update, pre- and post-update executions
/// of the same equivalence class are both queryable, with their own trees.
#[test]
fn updates_preserve_history_and_capture_new_paths() {
    let keys = equivalence_keys(&programs::packet_forwarding());
    let rec = TeeRecorder::new(AdvancedRecorder::new(4, keys), GroundTruthRecorder::new());
    let net = {
        let mut net = topo::line(3, Link::STUB_STUB);
        let n3 = net.add_node();
        net.add_link(n(0), n3, Link::STUB_STUB).unwrap();
        net.add_link(n3, n(2), Link::STUB_STUB).unwrap();
        net
    };
    let mut rt = Runtime::new(programs::packet_forwarding(), net, rec).unwrap();
    rt.install(forwarding::route(n(0), n(2), n(1))).unwrap();
    rt.install(forwarding::route(n(1), n(2), n(2))).unwrap();
    rt.install(forwarding::route(n(3), n(2), n(2))).unwrap();

    rt.inject(forwarding::packet(n(0), n(0), n(2), "before"))
        .unwrap();
    rt.run().unwrap();
    rt.delete_slow_at(forwarding::route(n(0), n(2), n(1)), rt.now())
        .unwrap();
    rt.update_slow_at(forwarding::route(n(0), n(2), n(3)), rt.now())
        .unwrap();
    rt.run().unwrap();
    rt.inject(forwarding::packet(n(0), n(0), n(2), "after"))
        .unwrap();
    rt.run().unwrap();

    assert_eq!(rt.outputs().len(), 2);
    assert_eq!(rt.recorder().primary.hmap_misses(), 0);
    let ctx = QueryCtx::from_runtime(&rt);
    let mut trees = Vec::new();
    for out in rt.outputs() {
        let got = query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid).unwrap();
        let want = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        assert_eq!(&got.tree, want);
        trees.push(got.tree);
    }
    // The two trees route through different intermediate nodes.
    assert!(!trees[0].equivalent(&trees[1]));
    assert!(trees[0].render().contains("@n1"));
    assert!(trees[1].render().contains("@n3"));
}
