//! Figure 11: bandwidth consumption during packet forwarding (500 pairs,
//! 100 packets each in the paper), plus the Section 5.5 route-update
//! variant.
//!
//! Paper result: all three schemes consume nearly identical bandwidth —
//! the per-packet metadata is negligible next to 500-byte payloads — and
//! updating a route every 10 s adds only ~0.6%.

#![forbid(unsafe_code)]

use dpc_bench::{
    emit_run_json, emit_run_json_with, emit_timeseries_json, print_series, print_table,
    run_forwarding, Cli, FwdConfig, Scheme,
};
use dpc_netsim::SimTime;
use dpc_telemetry::json::Json;

fn main() {
    let cli = Cli::parse();
    let (pairs, per_pair, duration) = if cli.paper_scale {
        (500, 100, SimTime::from_secs(100))
    } else {
        (50, 20, SimTime::from_secs(10))
    };
    let base = FwdConfig {
        seed: cli.seed,
        pairs,
        total_packets: Some(pairs * per_pair),
        duration,
        ..FwdConfig::default()
    };
    if !cli.json {
        println!("Figure 11 — bandwidth during forwarding ({pairs} pairs x {per_pair} packets)");
    }

    let mut xs: Vec<f64> = Vec::new();
    let mut series = Vec::new();
    let mut totals = Vec::new();
    for scheme in Scheme::PAPER {
        let out = run_forwarding(scheme, &base);
        if cli.json {
            emit_run_json("fig11", scheme.name(), &out.m);
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
        totals.push((scheme, out.m.total_traffic));
        series.push((scheme.name(), ys));
    }
    if !cli.json {
        print_series("bandwidth", "second", "MB/s", &xs, &series);
    }

    // The slow-table update variant (Advanced only, as in the paper).
    let with_updates = FwdConfig {
        route_update_every: Some(if cli.paper_scale {
            SimTime::from_secs(10)
        } else {
            SimTime::from_secs(2)
        }),
        ..base
    };
    let upd = run_forwarding(Scheme::Advanced, &with_updates);
    if cli.json {
        emit_run_json_with(
            "fig11",
            Scheme::Advanced.name(),
            vec![("route_updates", Json::Bool(true))],
            &upd.m,
        );
        if cli.timeseries {
            emit_timeseries_json(&upd.m);
        }
        return;
    }
    let adv_total = totals
        .iter()
        .find(|(s, _)| *s == Scheme::Advanced)
        .map(|(_, t)| *t)
        .expect("advanced ran");
    let overhead = (upd.m.total_traffic as f64 / adv_total as f64 - 1.0) * 100.0;
    print_table(
        "route-update overhead (Section 5.5)",
        &[
            ("Advanced total bytes", adv_total.to_string()),
            (
                "Advanced + updates total bytes",
                upd.m.total_traffic.to_string(),
            ),
            ("bandwidth increase", format!("{overhead:.2}%")),
        ],
    );
}
