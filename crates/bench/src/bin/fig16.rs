//! Figure 16: total DNS provenance storage over time at a constant
//! request rate.
//!
//! Paper result: growth rates 13.15 / 11.57 / 3.81 Mbps for ExSPAN /
//! Basic / Advanced; at 100 s the totals reach 1.32 / 1.16 / 0.38 GB —
//! Advanced roughly 3.5x below ExSPAN.

#![forbid(unsafe_code)]

use dpc_bench::{
    emit_run_json, emit_timeseries_json, print_series, run_dns_schemes, Cli, DnsConfig, Scheme,
};

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
            emit_run_json("fig16", scheme.name(), &out.m);
            if cli.timeseries {
                emit_timeseries_json(&out.m);
            }
        }
        return;
    }
    println!(
        "Figure 16 — DNS storage over time ({} req/s for {}s)",
        cfg.rate,
        cfg.duration.as_secs_f64()
    );
    // The storage trajectory comes from the runtime's time-series
    // sampler (summed per-node `recorder.storage_bytes#n` series).
    let mut xs: Vec<f64> = Vec::new();
    let mut series = Vec::new();
    for (scheme, out) in runs {
        let storage = out.m.storage_series();
        if xs.is_empty() {
            xs = storage.iter().map(|&(t, _)| t as f64 / 1e9).collect();
        }
        let ys: Vec<f64> = storage
            .iter()
            .map(|&(_, b)| dpc_workload::mb(b as usize))
            .collect();
        let rate_mbps = dpc_workload::mbps(out.m.total_storage(), out.m.duration);
        eprintln!("  {}: {:.2} Mbps growth", scheme.name(), rate_mbps);
        series.push((scheme.name(), ys));
    }
    print_series("total DNS provenance storage", "second", "MB", &xs, &series);
}
