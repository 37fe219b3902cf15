//! Figure 12: CDF of provenance query latency, 100 random queries.
//!
//! Paper result (on their 25-machine testbed): ExSPAN mean/median 75/74 ms
//! vs Basic 25.5/25 ms — about 3x — because ExSPAN processes and ships the
//! large intermediate tuples while Basic/Advanced re-derive them at the
//! querier. Expect the same ~3x ordering from the message-level query
//! protocol on the simulated network.

#![forbid(unsafe_code)]

use dpc_bench::{forwarding_query_latencies, print_cdf, Cli, FwdConfig, Scheme};
use dpc_netsim::SimTime;
use dpc_telemetry::json::Json;
use dpc_workload::Cdf;

fn main() {
    let cli = Cli::parse();
    let (pairs, queries) = if cli.paper_scale {
        (100, 100)
    } else {
        (30, 100)
    };
    let cfg = FwdConfig {
        seed: cli.seed,
        pairs,
        rate_per_pair: 2.0,
        duration: SimTime::from_secs(5),
        ..FwdConfig::default()
    };
    if !cli.json {
        println!("Figure 12 — query latency CDF ({queries} queries, {pairs} pairs)");
    }
    let mut cdfs = Vec::new();
    for scheme in Scheme::PAPER {
        let lat = forwarding_query_latencies(scheme, &cfg, queries);
        if cli.json {
            let line = Json::obj([
                ("record", Json::Str("query_latency".into())),
                ("figure", Json::Str("fig12".into())),
                ("scheme", Json::Str(scheme.name().into())),
                (
                    "latencies_ms",
                    Json::Arr(lat.iter().copied().map(Json::Float).collect()),
                ),
            ]);
            println!("{line}");
        }
        cdfs.push((scheme.name(), Cdf::new(lat)));
    }
    if cli.json {
        return;
    }
    let series: Vec<(&str, &Cdf)> = cdfs.iter().map(|(n, c)| (*n, c)).collect();
    print_cdf("provenance query latency", "ms", &series);
    let ex = &cdfs[0].1;
    let ba = &cdfs[1].1;
    println!(
        "ExSPAN/Basic mean ratio: {:.2}x (paper: ~3x)",
        ex.mean() / ba.mean()
    );
}
