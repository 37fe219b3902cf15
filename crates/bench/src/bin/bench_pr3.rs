//! Before/after benchmark for the compiled-plan evaluation hot path.
//!
//! Runs the fig08 forwarding workload and the DNS workload twice each —
//! once through the naive AST interpreter (`compiled_plans = false`, the
//! pre-optimization engine) and once through compiled rule plans with
//! secondary-index joins — and reports wall-clock times, speedups and
//! index telemetry as one JSON document (checked in as `BENCH_pr3.json`).
//!
//! Usage: `bench_pr3 [--smoke] [--iters N] [--out PATH]`
//!
//! `--smoke` shrinks the workloads for CI; the checked-in numbers come
//! from the default scale.

#![forbid(unsafe_code)]

use dpc_bench::{run_dns, run_forwarding, DnsConfig, FwdConfig, RunMeasurements, Scheme};
use dpc_netsim::SimTime;
use dpc_telemetry::json::Json;

struct Args {
    smoke: bool,
    iters: usize,
    out: String,
    scheme: Scheme,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        iters: 3,
        out: "BENCH_pr3.json".into(),
        scheme: Scheme::Exspan,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                args.smoke = true;
                args.iters = 1;
            }
            "--iters" => {
                args.iters = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => args.out = it.next().unwrap_or_else(|| usage()),
            "--scheme" => {
                args.scheme = match it.next().as_deref() {
                    Some("noop") => Scheme::Noop,
                    Some("exspan") => Scheme::Exspan,
                    Some("basic") => Scheme::Basic,
                    Some("advanced") => Scheme::Advanced,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    args
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_pr3 [--smoke] [--iters N] [--out PATH] [--scheme noop|exspan|basic|advanced]"
    );
    std::process::exit(2);
}

/// Best-of-`iters` event-processing seconds for `f` (each call returns
/// the run's drive-phase wall clock), plus the measurements of the final
/// run.
fn time_best(
    iters: usize,
    mut f: impl FnMut() -> (f64, RunMeasurements),
) -> (f64, RunMeasurements) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters {
        let (secs, m) = f();
        best = best.min(secs);
        last = Some(m);
    }
    (best, last.expect("iters >= 1"))
}

fn workload_record(
    name: &str,
    scheme: Scheme,
    iters: usize,
    run: impl Fn(bool) -> (f64, RunMeasurements),
) -> Json {
    eprintln!("{name}: naive interpreter ({iters} iters)...");
    let (before, _) = time_best(iters, || run(false));
    eprintln!("{name}: compiled plans ({iters} iters)...");
    let (after, m) = time_best(iters, || run(true));
    let (hits, misses) = m.index_hits_misses();
    let speedup = before / after;
    eprintln!("{name}: {before:.3}s -> {after:.3}s ({speedup:.2}x)");
    Json::obj([
        ("name", Json::Str(name.into())),
        ("scheme", Json::Str(scheme.name().into())),
        ("rules_fired", Json::UInt(m.rules_fired)),
        ("before_secs", Json::Float(before)),
        ("after_secs", Json::Float(after)),
        ("speedup", Json::Float(speedup)),
        ("index_hits", Json::UInt(hits)),
        ("index_misses", Json::UInt(misses)),
        ("plans_compiled", Json::UInt(m.plans_compiled())),
    ])
}

fn main() {
    let args = parse_args();
    let scheme = args.scheme;

    let fwd = if args.smoke {
        FwdConfig {
            pairs: 10,
            rate_per_pair: 2.5,
            duration: SimTime::from_secs(2),
            ..FwdConfig::default()
        }
    } else {
        // A 972-node transit-stub (the paper's shape, scaled up) with 3600
        // communicating pairs: per-node route tables reach several hundred
        // rows, the size regime the index work targets.
        FwdConfig {
            pairs: 3600,
            rate_per_pair: 0.5,
            duration: SimTime::from_secs(10),
            topo: dpc_netsim::topo::TransitStubParams {
                transit_nodes: 12,
                stub_domains_per_transit: 5,
                stub_nodes_per_domain: 16,
                ..Default::default()
            },
            ..FwdConfig::default()
        }
    };
    let dns = if args.smoke {
        DnsConfig {
            servers: 30,
            urls: 10,
            rate: 50.0,
            duration: SimTime::from_secs(2),
            ..DnsConfig::default()
        }
    } else {
        // 12000 URLs over 100 servers: each nameserver hosts ~120 address
        // records, so the naive interpreter scans ~120 rows per `request`
        // hop where the compiled plan probes the (loc, url) index.
        DnsConfig {
            urls: 12000,
            rate: 500.0,
            duration: SimTime::from_secs(10),
            ..DnsConfig::default()
        }
    };

    let workloads = vec![
        workload_record("fig08_forwarding", scheme, args.iters, |compiled| {
            let cfg = FwdConfig {
                compiled_plans: compiled,
                ..fwd.clone()
            };
            let out = run_forwarding(scheme, &cfg);
            (out.processing_secs, out.m)
        }),
        workload_record("dns_resolution", scheme, args.iters, |compiled| {
            let cfg = DnsConfig {
                compiled_plans: compiled,
                ..dns.clone()
            };
            let out = run_dns(scheme, &cfg);
            (out.processing_secs, out.m)
        }),
    ];

    let doc = Json::obj([
        ("record", Json::Str("bench_pr3".into())),
        ("smoke", Json::Bool(args.smoke)),
        ("iters", Json::UInt(args.iters as u64)),
        ("workloads", Json::Arr(workloads)),
    ]);
    let text = format!("{doc}\n");
    std::fs::write(&args.out, &text).expect("write output file");
    print!("{text}");
}
