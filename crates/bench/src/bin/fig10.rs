//! Figure 10: total storage vs. number of communicating pairs, with the
//! total packet count held constant (2000 packets in the paper).
//!
//! Paper result: ExSPAN (~27 MB) and Basic (~21 MB) stay flat — storage
//! tracks the packet count; Advanced grows with the pair count because
//! each pair is one equivalence class, yet stays far below the other two.

#![forbid(unsafe_code)]

use dpc_bench::{
    emit_run_json_with, print_series, run_forwarding, span_histograms_json, Cli, FwdConfig, Scheme,
};
use dpc_netsim::SimTime;
use dpc_telemetry::json::Json;

fn main() {
    let cli = Cli::parse();
    let total_packets = if cli.paper_scale { 2000 } else { 400 };
    let pair_counts: Vec<usize> = (1..=10).map(|k| k * 10).collect();
    if !cli.json {
        println!("Figure 10 — storage vs. communicating pairs ({total_packets} packets total)");
    }

    let xs: Vec<f64> = pair_counts.iter().map(|&p| p as f64).collect();
    let mut series = Vec::new();
    for scheme in Scheme::PAPER {
        let mut ys = Vec::new();
        for &pairs in &pair_counts {
            let cfg = FwdConfig {
                seed: cli.seed,
                pairs,
                total_packets: Some(total_packets),
                duration: SimTime::from_secs(4),
                trace_sample: if cli.trace { cli.trace_sample } else { 0 },
                ..FwdConfig::default()
            };
            let out = run_forwarding(scheme, &cfg);
            if cli.json {
                emit_run_json_with(
                    "fig10",
                    scheme.name(),
                    vec![("pairs", Json::UInt(pairs as u64))],
                    &out.m,
                );
                if cli.trace {
                    for row in span_histograms_json(&out.m.telemetry.spans()) {
                        println!("{row}");
                    }
                }
            }
            ys.push(dpc_workload::mb(out.m.total_storage()));
        }
        series.push((scheme.name(), ys));
    }
    if cli.json {
        return;
    }
    print_series("total storage", "pairs", "MB", &xs, &series);
}
