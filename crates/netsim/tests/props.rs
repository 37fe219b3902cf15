//! Randomized tests of the network layer: shortest-path invariants over
//! random connected topologies, and simulator delivery invariants.
//!
//! Driven by the in-tree seeded PRNG so every failing case reproduces
//! from its case number.

use dpc_common::{NodeId, Rng, SeededRng};
use dpc_netsim::{Link, Network, Sim, SimTime};

const CASES: u64 = 64;

/// A random connected network: a spanning tree plus extra chords, with
/// random link latencies.
fn random_network(rng: &mut SeededRng) -> Network {
    let n = rng.random_range(2..12u64) as usize;
    let mut net = Network::with_nodes(n);
    for i in 1..n {
        let p = rng.random_range(0..i as u64) as usize; // parent precedes child
        net.add_link(
            NodeId(i as u32),
            NodeId(p as u32),
            Link::new(SimTime::from_millis(rng.random_range(1..100u64)), 1_000_000),
        )
        .expect("tree edges are fresh");
    }
    for _ in 0..rng.random_range(0..6u64) {
        let a = NodeId(rng.random_range(0..n as u64) as u32);
        let b = NodeId(rng.random_range(0..n as u64) as u32);
        if a != b && net.link(a, b).is_none() {
            net.add_link(
                a,
                b,
                Link::new(SimTime::from_millis(rng.random_range(1..100u64)), 1_000_000),
            )
            .expect("checked for duplicates");
        }
    }
    net
}

/// Generated networks are connected, and every shortest path is a
/// walk over existing links with the claimed total latency.
#[test]
fn paths_are_valid_walks() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x11_000 + case);
        let net = random_network(&mut rng);
        assert!(net.is_connected());
        let n = net.node_count() as u32;
        for a in 0..n {
            for b in 0..n {
                let (a, b) = (NodeId(a), NodeId(b));
                let tree = net.latency_tree(a).unwrap();
                let path = tree.path(b).unwrap();
                assert_eq!(path[0], a);
                assert_eq!(*path.last().unwrap(), b);
                let mut total = SimTime::ZERO;
                for w in path.windows(2) {
                    let link = net.link(w[0], w[1]);
                    assert!(link.is_some(), "non-adjacent hop");
                    total += link.unwrap().latency;
                }
                assert_eq!(tree.latency(b).unwrap(), total);
            }
        }
    }
}

/// Latency metric properties: symmetry and the triangle inequality.
#[test]
fn latency_is_a_metric() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x12_000 + case);
        let net = random_network(&mut rng);
        let n = net.node_count() as u32;
        let d = |a: u32, b: u32| {
            net.latency_tree(NodeId(a))
                .unwrap()
                .latency(NodeId(b))
                .unwrap()
        };
        for a in 0..n {
            assert_eq!(d(a, a), SimTime::ZERO);
            for b in 0..n {
                assert_eq!(d(a, b), d(b, a));
                for c in 0..n.min(6) {
                    assert!(d(a, b) <= d(a, c) + d(c, b), "triangle violated");
                }
            }
        }
    }
}

/// Hop-shortest paths never have more hops than latency-shortest ones.
#[test]
fn hop_paths_minimize_hops() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x13_000 + case);
        let net = random_network(&mut rng);
        let n = net.node_count() as u32;
        for a in 0..n {
            let by_hops = net.hop_tree(NodeId(a)).unwrap();
            let by_latency = net.latency_tree(NodeId(a)).unwrap();
            for b in 0..n {
                let hops = by_hops.path(NodeId(b)).unwrap().len();
                let lat = by_latency.path(NodeId(b)).unwrap().len();
                assert!(hops <= lat);
            }
        }
    }
}

/// The simulator delivers every routed message exactly once, in
/// nondecreasing time order, regardless of the send pattern.
#[test]
fn routed_sends_deliver_once_in_time_order() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x14_000 + case);
        let net = random_network(&mut rng);
        let n = net.node_count();
        let mut sim: Sim<usize> = Sim::new(net);
        let mut expected = Vec::new();
        let sends = rng.random_range(1..30u64) as usize;
        for i in 0..sends {
            let a = NodeId(rng.random_range(0..n as u64) as u32);
            let b = NodeId(rng.random_range(0..n as u64) as u32);
            let bytes = rng.random_range(1..2000u64) as usize;
            sim.send_routed(a, b, bytes, i).unwrap();
            expected.push((i, b));
        }
        let mut seen = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some(d) = sim.pop() {
            assert!(d.at >= last, "time went backwards");
            last = d.at;
            seen.push((d.msg, d.dst));
        }
        seen.sort_unstable();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }
}
