//! Figure 14: DNS storage vs. number of requested URLs, with the request
//! count fixed (200 in the paper).
//!
//! Paper result: ExSPAN (~2.5 MB) and Basic (~2.26 MB) stay flat;
//! Advanced grows ~11.6 Kb per URL (one shared tree per equivalence
//! class) while remaining far below both.

#![forbid(unsafe_code)]

use dpc_bench::{emit_run_json_with, print_series, run_dns, Cli, DnsConfig, Scheme};
use dpc_telemetry::json::Json;

fn main() {
    let cli = Cli::parse();
    let total_requests = 200;
    let url_counts: Vec<usize> = (1..=8).map(|k| k * 10).collect();
    if !cli.json {
        println!("Figure 14 — DNS storage vs. URLs ({total_requests} requests total)");
    }

    let xs: Vec<f64> = url_counts.iter().map(|&u| u as f64).collect();
    let mut series = Vec::new();
    for scheme in Scheme::PAPER {
        let mut ys = Vec::new();
        for &urls in &url_counts {
            let cfg = DnsConfig {
                seed: cli.seed,
                urls,
                total_requests: Some(total_requests),
                ..DnsConfig::default()
            };
            let out = run_dns(scheme, &cfg);
            if cli.json {
                emit_run_json_with(
                    "fig14",
                    scheme.name(),
                    vec![("urls", Json::UInt(urls as u64))],
                    &out.m,
                );
            }
            ys.push(dpc_workload::mb(out.m.total_storage()));
        }
        series.push((scheme.name(), ys));
    }
    if cli.json {
        return;
    }
    print_series("total storage", "urls", "MB", &xs, &series);

    // The Advanced slope, reported as Kb/URL like the paper.
    let adv = &series[2].1;
    let slope_mb =
        (adv.last().unwrap() - adv.first().unwrap()) / (xs.last().unwrap() - xs.first().unwrap());
    println!(
        "Advanced slope: {:.1} Kb per URL (paper: 11.6 Kb)",
        slope_mb * 8.0 * 1000.0
    );
}
