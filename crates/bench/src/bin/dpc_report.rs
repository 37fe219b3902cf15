//! `dpc-report`: per-run timelines and the bench-history regression gate.
//!
//! ```text
//! dpc-report timelines [--workload fwd|dns] [--seed <n>] [--paper-scale]
//!                      [--out <file.json>] [--csv <file.csv>]
//! dpc-report bench-history --record [--file <BENCH_history.json>] [--seed <n>]
//! dpc-report bench-history --check  [--file <BENCH_history.json>] [--seed <n>]
//!                      [--tolerance <frac>] [--wall-tolerance <frac>]
//! ```
//!
//! `timelines` runs the paper's three schemes through the time-series
//! sampler and renders storage-over-time, bandwidth-over-time and the
//! compression ratio (ExSPAN storage over Basic/Advanced storage) as
//! text tables; `--out` additionally writes a JSON-lines artifact (run
//! records + every sampled series) and `--csv` a flat CSV.
//!
//! `bench-history` is the repo's perf memory (see
//! [`dpc_bench::history`]): `--record` appends normalized run records to
//! the history file, `--check` re-runs the same workload and fails
//! (exit 1) when a metric regresses past tolerance against the median of
//! the checked-in baseline.

#![forbid(unsafe_code)]

use dpc_bench::history::{check, BenchRecord, History, Tolerance};
use dpc_bench::{
    print_series, print_table, run_dns_schemes, run_forwarding_schemes, run_json, DnsConfig,
    FwdConfig, RunMeasurements, Scheme,
};
use dpc_netsim::SimTime;

const USAGE: &str = "usage:
  dpc-report timelines [--workload fwd|dns] [--seed <n>] [--paper-scale] [--out <file.json>] [--csv <file.csv>]
  dpc-report bench-history --record [--file <path>] [--seed <n>]
  dpc-report bench-history --check  [--file <path>] [--seed <n>] [--tolerance <frac>] [--wall-tolerance <frac>]";

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("timelines") => timelines(&args[1..]),
        Some("bench-history") => bench_history(&args[1..]),
        Some("--help") | Some("-h") | None => die("missing subcommand"),
        Some(other) => die(&format!("unknown subcommand `{other}`")),
    }
}

/// One scheme's run, reduced to what both subcommands need.
struct SchemeRun {
    scheme: Scheme,
    m: RunMeasurements,
    wall_secs: f64,
}

/// The fixed small gate workload: fast enough for CI, big enough that
/// every metric is nonzero. Changing it invalidates existing history
/// records (the config fingerprint no longer matches).
fn gate_config(seed: u64) -> (FwdConfig, String) {
    let cfg = FwdConfig {
        seed,
        pairs: 5,
        rate_per_pair: 5.0,
        duration: SimTime::from_secs(2),
        snapshot_every: SimTime::from_secs(1),
        ..FwdConfig::default()
    };
    (cfg, "pairs=5,rate=5,dur=2s".to_string())
}

fn run_fwd(cfg: &FwdConfig) -> Vec<SchemeRun> {
    run_forwarding_schemes(cfg, &Scheme::PAPER)
        .into_iter()
        .map(|(scheme, out)| SchemeRun {
            scheme,
            m: out.m,
            wall_secs: out.processing_secs,
        })
        .collect()
}

fn run_dns_workload(cfg: &DnsConfig) -> Vec<SchemeRun> {
    run_dns_schemes(cfg, &Scheme::PAPER)
        .into_iter()
        .map(|(scheme, out)| SchemeRun {
            scheme,
            m: out.m,
            wall_secs: out.processing_secs,
        })
        .collect()
}

// --- timelines ---------------------------------------------------------

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

    let runs = if workload == "dns" {
        let cfg = if paper_scale {
            DnsConfig::paper_scale(seed)
        } else {
            DnsConfig {
                seed,
                ..DnsConfig::default()
            }
        };
        run_dns_workload(&cfg)
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
        run_fwd(&cfg)
    };

    println!("dpc-report — {workload} workload timelines (seed {seed})");

    // Storage over time (MB), one column per scheme.
    let mut xs: Vec<f64> = Vec::new();
    let mut storage_cols = Vec::new();
    for r in &runs {
        let storage = r.m.storage_series();
        if xs.is_empty() {
            xs = storage.iter().map(|&(t, _)| t as f64 / 1e9).collect();
        }
        let ys: Vec<f64> = storage
            .iter()
            .map(|&(_, b)| dpc_workload::mb(b as usize))
            .collect();
        storage_cols.push((r.scheme.name(), ys));
    }
    print_series("storage over time", "second", "MB", &xs, &storage_cols);

    // Bandwidth over time (MB/s).
    let mut bxs: Vec<f64> = Vec::new();
    let mut bw_cols = Vec::new();
    for r in &runs {
        let rate = r.m.bandwidth_rate_series();
        if bxs.is_empty() {
            bxs = rate.iter().map(|&(s, _)| s).collect();
        }
        bw_cols.push((
            r.scheme.name(),
            rate.iter().map(|&(_, b)| b / 1e6).collect::<Vec<f64>>(),
        ));
    }
    print_series("bandwidth over time", "second", "MB/s", &bxs, &bw_cols);

    // Compression ratio over time: ExSPAN storage over each scheme's, at
    // the per-second snapshot granularity (the figure the paper's
    // storage plots imply).
    let per_scheme: Vec<(&str, std::collections::BTreeMap<u64, usize>)> = runs
        .iter()
        .map(|r| (r.scheme.name(), r.m.snapshots.iter().copied().collect()))
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
        .map(|r| {
            (
                r.scheme.name(),
                format!(
                    "{} storage bytes, {} wire bytes",
                    r.m.total_storage(),
                    r.m.total_traffic
                ),
            )
        })
        .collect();
    print_table("final totals", &totals);

    if let Some(path) = out_path {
        let mut doc = String::new();
        for r in &runs {
            doc.push_str(&run_json("dpc-report", r.scheme.name(), &r.m).to_string());
            doc.push('\n');
            doc.push_str(&r.m.telemetry.timeseries_json_lines());
        }
        if let Err(e) = std::fs::write(&path, doc) {
            die(&format!("cannot write {path}: {e}"));
        }
        println!("wrote JSON-lines timeline artifact to {path}");
    }
    if let Some(path) = csv_path {
        // Flat CSV across schemes: scheme,series,t_ns,value.
        let mut csv = String::from("scheme,series,t_ns,value\n");
        for r in &runs {
            for (key, points) in r.m.telemetry.timeseries() {
                for (t, v) in points {
                    csv.push_str(&format!("{},{key},{t},{v}\n", r.scheme.name()));
                }
            }
        }
        if let Err(e) = std::fs::write(&path, csv) {
            die(&format!("cannot write {path}: {e}"));
        }
        println!("wrote CSV timeline artifact to {path}");
    }
}

// --- bench-history -----------------------------------------------------

fn bench_history(args: &[String]) {
    let mut mode: Option<&str> = None;
    let mut file = "BENCH_history.json".to_string();
    let mut seed = 42u64;
    let mut tol = Tolerance::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--record" => mode = Some("record"),
            "--check" => mode = Some("check"),
            "--file" => match it.next() {
                Some(p) => file = p.clone(),
                None => die("--file requires a path"),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => die("--seed requires an integer"),
            },
            "--tolerance" => match it.next().and_then(|s| s.parse().ok()) {
                Some(t) => tol.metric = t,
                None => die("--tolerance requires a fraction (e.g. 0.1)"),
            },
            "--wall-tolerance" => match it.next().and_then(|s| s.parse().ok()) {
                Some(t) => tol.wall_clock = t,
                None => die("--wall-tolerance requires a fraction"),
            },
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let Some(mode) = mode else {
        die("bench-history requires --record or --check");
    };

    let (cfg, fingerprint) = gate_config(seed);
    let current: Vec<BenchRecord> = run_fwd(&cfg)
        .iter()
        .map(|r| BenchRecord {
            workload: "fwd".to_string(),
            scheme: r.scheme.name().to_string(),
            seed,
            config: fingerprint.clone(),
            wall_clock_secs: r.wall_secs,
            bytes_shipped: r.m.total_traffic,
            peak_storage_bytes: r.m.total_storage() as u64,
            index_hit_ratio: r.m.index_hit_ratio(),
        })
        .collect();

    let mut history = match std::fs::read_to_string(&file) {
        Ok(src) => match History::parse(&src) {
            Ok(h) => h,
            Err(e) => die(&format!("cannot parse {file}: {e}")),
        },
        Err(_) => History::default(),
    };

    if mode == "record" {
        history.runs.extend(current);
        if let Err(e) = std::fs::write(&file, history.to_json_string()) {
            die(&format!("cannot write {file}: {e}"));
        }
        println!("recorded {} run(s) into {file}", Scheme::PAPER.len());
        return;
    }

    let res = check(&history, &current, tol);
    for s in &res.skipped {
        println!("skipped {s}");
    }
    println!(
        "bench-history gate: {} metric(s) compared against {file}",
        res.compared
    );
    if res.passed() {
        println!("PASS");
    } else {
        for f in &res.failures {
            eprintln!("REGRESSION {f}");
        }
        std::process::exit(1);
    }
}
