//! Figure 9: total provenance storage over time, packet forwarding.
//!
//! Paper result: at 90 s ExSPAN holds 11.8 GB, Basic 9.2 GB, Advanced
//! 0.92 GB — linear growth for ExSPAN/Basic (131 / 109 MB/s), an order of
//! magnitude less for Advanced (10.3 MB/s). Expect the same linear shapes
//! and a comparable ratio at the scaled workload.

#![forbid(unsafe_code)]

use dpc_bench::{
    emit_run_json, emit_timeseries_json, print_series, run_forwarding_schemes, Cli, FwdConfig,
    Scheme,
};

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
            emit_run_json("fig09", scheme.name(), &out.m);
            if cli.timeseries {
                emit_timeseries_json(&out.m);
            }
        }
        return;
    }
    println!(
        "Figure 9 — total storage over time ({} pairs, {} pkt/s/pair)",
        cfg.pairs, cfg.rate_per_pair
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
        let growth = dpc_workload::mb(out.m.total_storage()) / cfg.duration.as_secs_f64();
        eprintln!("  {}: {:.2} MB/s average growth", scheme.name(), growth);
        series.push((scheme.name(), ys));
    }
    print_series("total provenance storage", "second", "MB", &xs, &series);
}
