//! Figure 15: bandwidth consumption for DNS resolution (100,000 requests
//! in the paper).
//!
//! Paper result: ExSPAN and Basic track each other (~4.5 MBps); Advanced
//! runs ~25% higher because DNS requests carry no payload, so the tagged
//! metadata (existFlag, evid, equivalence-key hash) is a visible fraction
//! of every message.

#![forbid(unsafe_code)]

use dpc_bench::{
    emit_run_json, emit_timeseries_json, print_series, print_table, run_dns, Cli, DnsConfig, Scheme,
};
use dpc_netsim::SimTime;

fn main() {
    let cli = Cli::parse();
    let total = if cli.paper_scale { 100_000 } else { 5_000 };
    let cfg = DnsConfig {
        seed: cli.seed,
        total_requests: Some(total),
        duration: SimTime::from_secs(10),
        ..DnsConfig::default()
    };
    if !cli.json {
        println!("Figure 15 — DNS bandwidth ({total} requests)");
    }

    let mut xs: Vec<f64> = Vec::new();
    let mut series = Vec::new();
    let mut totals = Vec::new();
    for scheme in Scheme::PAPER {
        let out = run_dns(scheme, &cfg);
        if cli.json {
            emit_run_json("fig15", scheme.name(), &out.m);
            if cli.timeseries {
                emit_timeseries_json(&out.m);
            }
        }
        // Bandwidth-over-time from the sampler's cumulative
        // `net.bytes_total` series, differentiated between stamps.
        let rate = out.m.bandwidth_rate_series();
        if xs.is_empty() {
            xs = rate.iter().map(|&(s, _)| s).collect();
        }
        let ys: Vec<f64> = rate.iter().map(|&(_, b)| b / 1_000_000.0).collect();
        totals.push((scheme.name(), out.m.total_traffic));
        series.push((scheme.name(), ys));
    }
    if cli.json {
        return;
    }
    print_series("bandwidth", "second", "MB/s", &xs, &series);
    let ex = totals[0].1 as f64;
    let adv = totals[2].1 as f64;
    print_table(
        "totals",
        &[
            ("ExSPAN bytes", totals[0].1.to_string()),
            ("Basic bytes", totals[1].1.to_string()),
            ("Advanced bytes", totals[2].1.to_string()),
            (
                "Advanced overhead vs ExSPAN",
                format!("{:.1}% (paper: ~25%)", (adv / ex - 1.0) * 100.0),
            ),
        ],
    );
}
