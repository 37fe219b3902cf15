//! Micro-benchmarks for the evaluation hot path introduced by the
//! compiled-plan work: naive AST interpretation vs [`RulePlan`]
//! evaluation across table sizes, DNS resolution's `r2` (one index probe
//! matching every child zone, then `f_isSubDomain` per match),
//! secondary-index probes vs full scans,
//! `Table` insert/remove, one compiled evaluation of a packet carrying a
//! 500-B payload, SHA-1 over 4 KiB on the dispatching and the portable
//! kernel, the cached `Tuple::vid` and `Tuple::evid` digests (each
//! computed only when asked for), `Database::retain` against
//! `Database::insert` for a delivered packet, and the telemetry writes
//! the runtime makes per message (a metric-handle increment, the due check
//! when nothing is due, an unsampled child span with an attribute), and
//! the network layer on the 972-node forwarding topology: a `Network`
//! clone (every query takes one), a routed path read from the shared
//! latency trees, and one full per-source tree build.
//!
//! Runs on the in-tree `dpc_bench::microbench` harness (offline builds
//! carry no criterion); enable with `--features microbench`.

use dpc_apps::dns::is_sub_domain;
use dpc_bench::microbench::Bench;
use dpc_common::hash::sha1_portable;
use dpc_common::{sha1, NodeId, Rng, SeededRng, Tuple, Value};
use dpc_engine::plan::{EvalStats, RulePlan};
use dpc_engine::{eval_rule, Database, FnRegistry, Table};
use dpc_ndlog::programs;
use dpc_netsim::topo;
use dpc_telemetry::{AttrValue, SpanContext, Telemetry};
use std::hint::black_box;

fn route(loc: u32, dst: u32, next: u32) -> Tuple {
    Tuple::new(
        "route",
        vec![
            Value::Addr(NodeId(loc)),
            Value::Addr(NodeId(dst)),
            Value::Addr(NodeId(next)),
        ],
    )
}

fn packet(loc: u32, dst: u32) -> Tuple {
    packet_with(loc, dst, "payload")
}

fn packet_with(loc: u32, dst: u32, payload: &str) -> Tuple {
    Tuple::new(
        "packet",
        vec![
            Value::Addr(NodeId(loc)),
            Value::Addr(NodeId(0)),
            Value::Addr(NodeId(dst)),
            Value::str(payload),
        ],
    )
}

/// A forwarding database with `n` route rows at node 1, destinations
/// `0..n` — one matching row per packet, `n - 1` non-matching.
fn route_db(n: u32) -> Database {
    let mut db = Database::new();
    for d in 0..n {
        db.insert(route(1, d, (d + 1) % n.max(1)));
    }
    db
}

fn main() {
    let mut b = Bench::from_args();

    let delp = programs::packet_forwarding();
    let r1 = &delp.rules()[0];
    let plan = RulePlan::compile(r1).expect("r1 compiles");
    let fns = FnRegistry::new();
    let ev = packet(1, 7);

    // The tentpole comparison: one rule evaluation against growing slow
    // state. The naive path scans every route row; the compiled path
    // probes the (loc, dst) index.
    for n in [16u32, 256, 4096] {
        let db = route_db(n);
        b.bench(&format!("eval_rule_naive_{n}"), || {
            eval_rule(black_box(r1), black_box(&ev), &db, &fns).unwrap()
        });
        let mut db = route_db(n);
        // Warm the index once so the steady state is measured.
        let mut stats = EvalStats::default();
        plan.eval(&ev, &mut db, &fns, &mut stats).unwrap();
        b.bench(&format!("eval_rule_compiled_{n}"), || {
            let mut stats = EvalStats::default();
            plan.eval(black_box(&ev), &mut db, &fns, &mut stats)
                .unwrap()
        });
    }

    // The same evaluation with a forwarding-size payload: the slot
    // binding and the head tuple share the event's string, so this
    // should cost what the short-payload case does.
    let ev_500b = packet_with(1, 7, &"x".repeat(500));
    let mut db = route_db(256);
    b.bench("eval_rule_compiled_256_500b", || {
        let mut stats = EvalStats::default();
        plan.eval(black_box(&ev_500b), &mut db, &fns, &mut stats)
            .unwrap()
    });

    // DNS resolution's r2: a `request` at a nameserver with `k` child
    // zones. Every `nameServer` row matches the (loc) index probe, and
    // `f_isSubDomain` filters all but the one zone holding the URL: the
    // multi-match and function-call path.
    let dns = programs::dns_resolution();
    let r2 = dns.program().rule("r2").expect("the DNS program has r2");
    let r2_plan = RulePlan::compile(r2).expect("r2 compiles");
    let mut dns_fns = FnRegistry::new();
    dns_fns.register("f_isSubDomain", |args: &[Value]| {
        let (Some(dm), Some(url)) = (args[0].as_str(), args[1].as_str()) else {
            return Err(dpc_common::Error::Eval(
                "f_isSubDomain expects strings".into(),
            ));
        };
        Ok(Value::Bool(is_sub_domain(dm, url)))
    });
    for k in [4u32, 16] {
        let mut db = Database::new();
        for c in 0..k {
            db.insert(Tuple::new(
                "nameServer",
                vec![
                    Value::Addr(NodeId(1)),
                    Value::str(format!("zone{c}.example.com")),
                    Value::Addr(NodeId(100 + c)),
                ],
            ));
        }
        let request = Tuple::new(
            "request",
            vec![
                Value::Addr(NodeId(1)),
                Value::str(format!("www.zone{}.example.com", k / 2)),
                Value::Addr(NodeId(0)),
                Value::Int(7),
            ],
        );
        let mut stats = EvalStats::default();
        let warm = r2_plan
            .eval(&request, &mut db, &dns_fns, &mut stats)
            .unwrap();
        assert_eq!(warm.len(), 1, "exactly one child zone holds the URL");
        b.bench(&format!("eval_dns_r2_{k}"), || {
            let mut stats = EvalStats::default();
            r2_plan
                .eval(black_box(&request), &mut db, &dns_fns, &mut stats)
                .unwrap()
        });
    }

    // SHA-1 throughput: the kernel this CPU dispatches to (SHA-NI where
    // present) against the portable one.
    let block_4k: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
    b.bench("sha1_4kib", || sha1(black_box(&block_4k)));
    b.bench("sha1_4kib_portable", || sha1_portable(black_box(&block_4k)));

    // Index probe vs the scan it replaces, on the bare table: one bucket
    // lookup by the key values' hash, then the key re-check of its row.
    let mut table = Table::new();
    for d in 0..4096u32 {
        table.insert(route(1, d, d + 1));
    }
    let index = table.index(&[0, 1]).expect("route rows cover (loc, dst)");
    let key = [Value::Addr(NodeId(1)), Value::Addr(NodeId(7))];
    b.bench("table_probe_indexed_4096", || {
        index.probe(black_box(&key)).count()
    });
    let target = route(1, 7, 8);
    b.bench("table_scan_4096", || {
        table.iter().filter(|t| **t == target).count()
    });

    // Insert + tombstone remove round-trip (index maintenance included).
    let mut churn = Table::new();
    for d in 0..1024u32 {
        churn.insert(route(2, d, d + 1));
    }
    churn.index(&[0, 1]);
    let mut i = 0u32;
    b.bench("table_insert_remove_1024", || {
        let t = route(3, i % 64, i);
        i = i.wrapping_add(1);
        churn.insert(t.clone());
        churn.remove(&t)
    });

    // Cached digest: the first vid() hashes, clones share the cache.
    let big = Tuple::new(
        "packet",
        vec![
            Value::Addr(NodeId(1)),
            Value::Addr(NodeId(0)),
            Value::Addr(NodeId(3)),
            Value::str("x".repeat(500)),
        ],
    );
    big.vid();
    b.bench("tuple_vid_cached", || black_box(&big).vid());
    b.bench("tuple_vid_fresh", || {
        let t = Tuple::new(
            "packet",
            vec![
                Value::Addr(NodeId(1)),
                Value::Addr(NodeId(0)),
                Value::Addr(NodeId(3)),
                Value::str("x".repeat(500)),
            ],
        );
        t.vid()
    });
    b.bench("tuple_evid_fresh", || {
        let t = Tuple::new(
            "packet",
            vec![
                Value::Addr(NodeId(1)),
                Value::Addr(NodeId(0)),
                Value::Addr(NodeId(3)),
                Value::str("x".repeat(500)),
            ],
        );
        t.evid()
    });
    b.bench("tuple_clone_shares_cache", || black_box(&big).clone().vid());

    // Keeping a delivered packet resolvable by vid: `retain` (the vid
    // index only, how the runtime keeps event and output tuples) against
    // `insert` (join table plus vid index). Each iteration builds and
    // digests a distinct fresh packet; the database starts over every
    // `ROWS` packets so memory stays bounded.
    const ROWS: u64 = 4096;
    let fresh_packet = |i: u64| {
        let mut payload = format!("{i:016}");
        payload.push_str(&"x".repeat(500 - payload.len()));
        Tuple::new(
            "packet",
            vec![
                Value::Addr(NodeId(1)),
                Value::Addr(NodeId(0)),
                Value::Addr(NodeId(3)),
                Value::str(payload),
            ],
        )
    };
    let (mut db, mut i) = (Database::new(), 0u64);
    b.bench("database_insert_500b", || {
        i += 1;
        if i % ROWS == 0 {
            db = Database::new();
        }
        db.insert(fresh_packet(i))
    });
    let (mut db, mut i) = (Database::new(), 0u64);
    b.bench("database_retain_500b", || {
        i += 1;
        if i % ROWS == 0 {
            db = Database::new();
        }
        db.retain(fresh_packet(i))
    });

    // Telemetry as the bench runners attach it (snapshots and samples
    // every simulated second, spans off), written the way the runtime
    // writes it on every delivered message.
    let t = Telemetry::handle();
    t.set_snapshot_every_nanos(1_000_000_000);
    t.set_timeseries(1_000_000_000, dpc_telemetry::DEFAULT_SERIES_CAPACITY);
    let nodes = 972u32;
    let fired = t.node_counters("engine.rules_fired", nodes as usize);
    let mut node = 0u32;
    b.bench("telemetry_counter_add", || {
        node = (node + 1) % nodes;
        fired.at(black_box(node)).add(1);
    });
    let delay = t.hist("net.queue_delay_ns");
    let mut v = 0u64;
    b.bench("telemetry_hist_observe", || {
        v = (v + 7919) % 100_000;
        delay.observe(black_box(v));
    });
    b.bench("telemetry_tick_not_due", || t.tick(black_box(999_999_999)));
    let rel = Tuple::new("dnsRequest", vec![Value::Addr(NodeId(0))]);
    b.bench("telemetry_span_child_unsampled_attr", || {
        let s = t.span_child("engine.event", Some(0), black_box(SpanContext::NONE), 0);
        t.span_attr(s, "rel", || AttrValue::Str(rel.rel().to_string()));
        t.span_end(s, 1);
        s
    });

    // The network layer on dpcbench's forwarding topology (972 nodes,
    // topology seed 42). Clones share the topology and the route trees;
    // a path read walks a tree the warm-up already built.
    let ts = topo::transit_stub(
        &mut SeededRng::seed_from_u64(42),
        &topo::TransitStubParams {
            transit_nodes: 12,
            stub_domains_per_transit: 5,
            stub_nodes_per_domain: 16,
            ..Default::default()
        },
    );
    let net = ts.net;
    b.bench("network_clone_972", || black_box(&net).clone());
    let (a, c) = (ts.stub[0], ts.stub[1]);
    assert!(
        net.link(a, c).is_some(),
        "the first two stub nodes are neighbours"
    );
    b.bench("path_by_latency_cached_972_neighbour", || {
        net.path_by_latency(black_box(a), black_box(c)).unwrap()
    });
    let mut rng = SeededRng::seed_from_u64(1);
    let mut pick = || ts.stub[rng.random_range(0..ts.stub.len() as u64) as usize];
    let pairs: Vec<(NodeId, NodeId)> = (0..64).map(|_| (pick(), pick())).collect();
    let mut i = 0;
    b.bench("path_by_latency_cached_972_random", || {
        i = (i + 1) % pairs.len();
        let (s, d) = pairs[i];
        net.path_by_latency(black_box(s), black_box(d)).unwrap()
    });
    // The Dijkstra every route tree runs; hop trees are built afresh on
    // each call, so this is the cost of one source's tree.
    let mut src = 0u32;
    b.bench("route_tree_build_972", || {
        src = (src + 1) % net.node_count() as u32;
        net.hop_tree(black_box(NodeId(src))).unwrap()
    });

    b.finish();
}
