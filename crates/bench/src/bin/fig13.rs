//! Figure 13: CDF of per-nameserver storage growth rate, DNS resolution
//! at 1000 requests/second.
//!
//! Paper result: at the 80th percentile ExSPAN grows at 476 Kbps vs
//! Advanced's 121 Kbps — about 4x (less than forwarding's 11x because the
//! total event throughput is rated, spreading load over the tree).

#![forbid(unsafe_code)]

use dpc_bench::{emit_run_json_with, print_cdf, run_dns_schemes, Cli, DnsConfig, Scheme};
use dpc_telemetry::json::Json;
use dpc_workload::Cdf;

fn main() {
    let cli = Cli::parse();
    let cfg = if cli.paper_scale {
        DnsConfig::paper_scale(cli.seed)
    } else {
        DnsConfig {
            seed: cli.seed,
            ..DnsConfig::default()
        }
    };
    let runs = run_dns_schemes(&cfg, &Scheme::PAPER);
    if cli.json {
        for (scheme, out) in &runs {
            emit_run_json_with(
                "fig13",
                scheme.name(),
                vec![
                    ("injected", Json::UInt(out.injected as u64)),
                    ("resolved", Json::UInt(out.resolved as u64)),
                ],
                &out.m,
            );
        }
        return;
    }
    println!(
        "Figure 13 — per-nameserver storage growth CDF ({} servers, {} URLs, {} req/s)",
        cfg.servers, cfg.urls, cfg.rate
    );
    let mut cdfs = Vec::new();
    for (scheme, out) in runs {
        eprintln!(
            "  {}: {}/{} resolved, total {:.2} MB",
            scheme.name(),
            out.resolved,
            out.injected,
            dpc_workload::mb(out.m.total_storage())
        );
        // Kbps is the natural unit at DNS row sizes.
        let rates: Vec<f64> = out
            .m
            .growth_rates_mbps()
            .iter()
            .map(|m| m * 1000.0)
            .collect();
        cdfs.push((scheme.name(), Cdf::new(rates)));
    }
    let series: Vec<(&str, &Cdf)> = cdfs.iter().map(|(n, c)| (*n, c)).collect();
    print_cdf("per-nameserver storage growth rate", "Kbps", &series);
    println!(
        "ExSPAN/Advanced p80 ratio: {:.2}x (paper: ~4x)",
        cdfs[0].1.quantile(0.8) / cdfs[2].1.quantile(0.8).max(1e-9)
    );
}
