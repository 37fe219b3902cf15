//! `dpc-trace` — run the forwarding workload with causal span tracing
//! on, execute simulated provenance queries against the Advanced store,
//! and attribute where query latency goes.
//!
//! Prints the aggregate critical-path breakdown (network / join /
//! equivalence / storage) and the top-k slowest queries, and writes the
//! full span set as Chrome trace-event JSON — load it in Perfetto or
//! `chrome://tracing` to see maintenance executions and queries on one
//! simulated-time axis.
//!
//! Flags on top of the shared harness CLI:
//!
//! * `--queries <n>` — provenance queries to run and attribute (20).
//! * `--top <k>` — slowest queries to list (10).
//! * `--out <path>` — Chrome trace output path (`dpc.trace.json`).

#![forbid(unsafe_code)]

use dpc_bench::{
    print_trace_report, run_traced_queries, span_histograms_json, trace_summary_json, Cli,
    FwdConfig,
};
use dpc_netsim::SimTime;
use dpc_telemetry::chrome_trace;

fn fail(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: dpc-trace [--queries <n>] [--top <k>] [--out <path>] \
         [--paper-scale] [--seed <n>] [--json] [--trace-sample <n>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut queries = 20usize;
    let mut top = 10usize;
    let mut out_path = String::from("dpc.trace.json");
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--queries" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => queries = n,
                None => fail("--queries requires an integer"),
            },
            "--top" => match args.next().and_then(|s| s.parse().ok()) {
                Some(k) => top = k,
                None => fail("--top requires an integer"),
            },
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => fail("--out requires a path"),
            },
            _ => rest.push(a),
        }
    }
    let cli = match Cli::parse_from(rest) {
        Ok(cli) => cli,
        Err(msg) => fail(&msg),
    };

    let cfg = FwdConfig {
        seed: cli.seed,
        duration: if cli.paper_scale {
            SimTime::from_secs(10)
        } else {
            SimTime::from_secs(4)
        },
        trace_sample: cli.trace_sample,
        ..FwdConfig::default()
    };
    let out = run_traced_queries(&cfg, queries);

    if cli.json {
        println!(
            "{}",
            trace_summary_json("trace", "Advanced", &out.queries, top)
        );
        for row in span_histograms_json(&out.spans) {
            println!("{row}");
        }
    } else {
        print_trace_report(&out.queries, top);
    }

    let doc = chrome_trace(&out.spans).to_string();
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    if !cli.json {
        println!();
        println!(
            "wrote {} spans to {out_path} (load in Perfetto / chrome://tracing)",
            out.spans.len()
        );
    }
}
