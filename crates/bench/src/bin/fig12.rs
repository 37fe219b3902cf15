//! Figure 12: CDF of provenance query latency, 100 random queries.
//!
//! Paper result (on their 25-machine testbed): ExSPAN mean/median 75/74 ms
//! vs Basic 25.5/25 ms — about 3x — because ExSPAN processes and ships the
//! large intermediate tuples while Basic/Advanced re-derive them at the
//! querier. Expect the same ~3x ordering under the simulated cost model.

#![forbid(unsafe_code)]

use dpc_bench::fwdrun::simulated_query_means;
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
        let (sim_e, sim_a) = simulated_query_means(&cfg, queries.min(20));
        let line = Json::obj([
            ("record", Json::Str("simulated_query_means".into())),
            ("figure", Json::Str("fig12".into())),
            ("exspan_mean_ms", Json::Float(sim_e)),
            ("advanced_mean_ms", Json::Float(sim_a)),
        ]);
        println!("{line}");
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

    // Cross-check with the message-level simulation of both protocols
    // (dpc_core::distquery): latencies come from the network simulator
    // itself, not the analytic cost model.
    let (sim_e, sim_a) = simulated_query_means(&cfg, queries.min(20));
    println!(
        "simulated (message-level): ExSPAN mean {sim_e:.1} ms, Advanced mean {sim_a:.1} ms, ratio {:.2}x",
        sim_e / sim_a
    );
}
