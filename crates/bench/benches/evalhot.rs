//! Micro-benchmarks for the evaluation hot path introduced by the
//! compiled-plan work: naive AST interpretation vs [`RulePlan`]
//! evaluation across table sizes, secondary-index probes vs full scans,
//! `Table` insert/remove, the cached `Tuple::vid` and `Tuple::evid`
//! digests (each computed only when asked for), `Database::retain` against
//! `Database::insert` for a delivered packet, and the telemetry writes the runtime makes per message (a metric-handle
//! increment, the due check when nothing is due, an unsampled child span
//! with an attribute).
//!
//! Runs on the in-tree `dpc_bench::microbench` harness (offline builds
//! carry no criterion); enable with `--features microbench`.

use dpc_bench::microbench::Bench;
use dpc_common::{NodeId, Tuple, Value};
use dpc_engine::plan::{EvalStats, RulePlan};
use dpc_engine::{eval_rule, Database, FnRegistry, Table};
use dpc_ndlog::programs;
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
    Tuple::new(
        "packet",
        vec![
            Value::Addr(NodeId(loc)),
            Value::Addr(NodeId(0)),
            Value::Addr(NodeId(dst)),
            Value::str("payload"),
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

    // Index probe vs the scan it replaces, on the bare table.
    let mut table = Table::new();
    for d in 0..4096u32 {
        table.insert(route(1, d, d + 1));
    }
    table.ensure_index(&[0, 1]);
    let mut key = Vec::new();
    Value::Addr(NodeId(1)).encode_into(&mut key);
    Value::Addr(NodeId(7)).encode_into(&mut key);
    b.bench("table_probe_indexed_4096", || {
        table
            .probe(black_box(&[0, 1]), black_box(&key))
            .map(|it| it.count())
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
    churn.ensure_index(&[0, 1]);
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

    b.finish();
}
