//! `dpc-report`: per-run timelines.
//!
//! ```text
//! dpc-report timelines [--workload fwd|dns] [--seed <n>] [--paper-scale]
//!                      [--out <file.json>] [--csv <file.csv>]
//! ```
//!
//! `timelines` runs the paper's three schemes through the time-series
//! sampler and renders storage-over-time, bandwidth-over-time and the
//! compression ratio (ExSPAN storage over Basic/Advanced storage) as
//! text tables; `--out` additionally writes a JSON-lines artifact (run
//! records + every sampled series) and `--csv` a flat CSV.

#![forbid(unsafe_code)]

use dpc_bench::{
    print_series, print_table, run_dns_schemes, run_forwarding_schemes, run_json, DnsConfig,
    FwdConfig, RunMeasurements, Scheme,
};
use dpc_netsim::SimTime;

const USAGE: &str = "usage:
  dpc-report timelines [--workload fwd|dns] [--seed <n>] [--paper-scale] [--out <file.json>] [--csv <file.csv>]";

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("timelines") => timelines(&args[1..]),
        Some("--help") | Some("-h") | None => die("missing subcommand"),
        Some(other) => die(&format!("unknown subcommand `{other}`")),
    }
}

fn timelines(args: &[String]) {
    let mut workload = "fwd".to_string();
    let mut seed = 42u64;
    let mut paper_scale = false;
    let mut out_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => match it.next().map(String::as_str) {
                Some(w @ ("fwd" | "dns")) => workload = w.to_string(),
                _ => die("--workload requires `fwd` or `dns`"),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => die("--seed requires an integer"),
            },
            "--paper-scale" => paper_scale = true,
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => die("--out requires a path"),
            },
            "--csv" => match it.next() {
                Some(p) => csv_path = Some(p.clone()),
                None => die("--csv requires a path"),
            },
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    let runs: Vec<(Scheme, RunMeasurements)> = if workload == "dns" {
        let cfg = if paper_scale {
            DnsConfig::paper_scale(seed)
        } else {
            DnsConfig {
                seed,
                ..DnsConfig::default()
            }
        };
        run_dns_schemes(&cfg, &Scheme::PAPER)
            .into_iter()
            .map(|(scheme, out)| (scheme, out.m))
            .collect()
    } else {
        let cfg = if paper_scale {
            FwdConfig::paper_scale(seed)
        } else {
            FwdConfig {
                seed,
                pairs: 20,
                rate_per_pair: 10.0,
                duration: SimTime::from_secs(10),
                ..FwdConfig::default()
            }
        };
        run_forwarding_schemes(&cfg, &Scheme::PAPER)
            .into_iter()
            .map(|(scheme, out)| (scheme, out.m))
            .collect()
    };

    println!("dpc-report — {workload} workload timelines (seed {seed})");

    // Storage over time (MB), one column per scheme.
    let mut xs: Vec<f64> = Vec::new();
    let mut storage_cols = Vec::new();
    for (scheme, m) in &runs {
        let storage = m.storage_series();
        if xs.is_empty() {
            xs = storage.iter().map(|&(t, _)| t as f64 / 1e9).collect();
        }
        let ys: Vec<f64> = storage
            .iter()
            .map(|&(_, b)| dpc_workload::mb(b as usize))
            .collect();
        storage_cols.push((scheme.name(), ys));
    }
    print_series("storage over time", "second", "MB", &xs, &storage_cols);

    // Bandwidth over time (MB/s).
    let mut bxs: Vec<f64> = Vec::new();
    let mut bw_cols = Vec::new();
    for (scheme, m) in &runs {
        let rate = m.bandwidth_rate_series();
        if bxs.is_empty() {
            bxs = rate.iter().map(|&(s, _)| s).collect();
        }
        bw_cols.push((
            scheme.name(),
            rate.iter().map(|&(_, b)| b / 1e6).collect::<Vec<f64>>(),
        ));
    }
    print_series("bandwidth over time", "second", "MB/s", &bxs, &bw_cols);

    // Compression ratio over time: ExSPAN storage over each scheme's, at
    // the per-second snapshot granularity (the figure the paper's
    // storage plots imply).
    let per_scheme: Vec<(&str, std::collections::BTreeMap<u64, usize>)> = runs
        .iter()
        .map(|(scheme, m)| (scheme.name(), m.storage_snapshots().into_iter().collect()))
        .collect();
    if let Some((_, exspan)) = per_scheme.iter().find(|(n, _)| *n == "ExSPAN") {
        let mut rxs = Vec::new();
        let mut ratio_cols: Vec<(&str, Vec<f64>)> = per_scheme
            .iter()
            .filter(|(n, _)| *n != "ExSPAN")
            .map(|(n, _)| (*n, Vec::new()))
            .collect();
        for (&sec, &ex_bytes) in exspan {
            rxs.push(sec as f64);
            for (name, col) in &mut ratio_cols {
                let own = per_scheme
                    .iter()
                    .find(|(n, _)| n == name)
                    .and_then(|(_, snaps)| snaps.get(&sec))
                    .copied()
                    .unwrap_or(0);
                col.push(if own > 0 {
                    ex_bytes as f64 / own as f64
                } else {
                    f64::NAN
                });
            }
        }
        print_series(
            "compression ratio (ExSPAN storage / scheme storage)",
            "second",
            "x",
            &rxs,
            &ratio_cols,
        );
    }

    let totals: Vec<(&str, String)> = runs
        .iter()
        .map(|(scheme, m)| {
            (
                scheme.name(),
                format!(
                    "{} storage bytes, {} wire bytes",
                    m.total_storage(),
                    m.total_traffic
                ),
            )
        })
        .collect();
    print_table("final totals", &totals);

    if let Some(path) = out_path {
        let mut doc = String::new();
        for (scheme, m) in &runs {
            doc.push_str(&run_json("dpc-report", scheme.name(), m).to_string());
            doc.push('\n');
            doc.push_str(&m.telemetry.timeseries_json_lines());
        }
        if let Err(e) = std::fs::write(&path, doc) {
            die(&format!("cannot write {path}: {e}"));
        }
        println!("wrote JSON-lines timeline artifact to {path}");
    }
    if let Some(path) = csv_path {
        // Flat CSV across schemes: scheme,series,t_ns,value.
        let mut csv = String::from("scheme,series,t_ns,value\n");
        for (scheme, m) in &runs {
            for (key, points) in m.telemetry.timeseries() {
                for (t, v) in points {
                    csv.push_str(&format!("{},{key},{t},{v}\n", scheme.name()));
                }
            }
        }
        if let Err(e) = std::fs::write(&path, csv) {
            die(&format!("cannot write {path}: {e}"));
        }
        println!("wrote CSV timeline artifact to {path}");
    }
}
