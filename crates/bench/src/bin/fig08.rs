//! Figure 8: CDF of per-node provenance storage growth rate, packet
//! forwarding, 100 communicating pairs.
//!
//! Paper result: ExSPAN has 20% of nodes above 5 Mbps (transit nodes above
//! 30 Mbps); Advanced keeps every node under 2 Mbps — roughly an 11x
//! mean reduction. Expect the same ordering and a similar gap here.

#![forbid(unsafe_code)]

use dpc_bench::{emit_run_json, print_cdf, run_forwarding_schemes, Cli, FwdConfig, Scheme};
use dpc_workload::Cdf;

fn main() {
    let cli = Cli::parse();
    let cfg = if cli.paper_scale {
        FwdConfig::paper_scale(cli.seed)
    } else {
        FwdConfig {
            seed: cli.seed,
            pairs: 100,
            rate_per_pair: 10.0,
            duration: dpc_netsim::SimTime::from_secs(10),
            ..FwdConfig::default()
        }
    };
    let runs = run_forwarding_schemes(&cfg, &Scheme::PAPER);
    if cli.json {
        for (scheme, out) in &runs {
            emit_run_json("fig08", scheme.name(), &out.m);
        }
        return;
    }
    println!(
        "Figure 8 — per-node storage growth CDF ({} pairs, {} pkt/s/pair, {}s)",
        cfg.pairs,
        cfg.rate_per_pair,
        cfg.duration.as_secs_f64()
    );
    let mut cdfs = Vec::new();
    for (scheme, out) in runs {
        eprintln!(
            "  {}: {} outputs, total {:.2} MB",
            scheme.name(),
            out.m.outputs,
            dpc_workload::mb(out.m.total_storage())
        );
        cdfs.push((scheme.name(), Cdf::new(out.m.growth_rates_mbps())));
    }
    let series: Vec<(&str, &Cdf)> = cdfs.iter().map(|(n, c)| (*n, c)).collect();
    print_cdf("per-node storage growth rate", "Mbps", &series);
}
