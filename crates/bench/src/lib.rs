#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The evaluation harness behind the `fig08`..`fig16` binaries.
//!
//! Each experiment mirrors one figure of the paper's Section 6. The
//! default configurations are scaled down from the paper's so every
//! harness finishes in seconds; pass `--paper-scale` to a binary to run
//! the paper's parameters (slower and memory-hungry for ExSPAN, exactly as
//! the paper's 131 MB/s growth rate suggests).

pub mod dnsrun;
pub mod fwdrun;
#[cfg(feature = "microbench")]
pub mod microbench;
pub mod report;
pub mod tracerun;

use dpc_common::NodeId;
use dpc_engine::{ProvRecorder, Runtime};
use dpc_netsim::SimTime;
use dpc_telemetry::TelemetryHandle;

pub use dnsrun::{run_dns, DnsConfig, DnsRunOutput};
pub use fwdrun::{forwarding_query_latencies, run_forwarding, FwdConfig, FwdRunOutput};
pub use tracerun::{
    aggregate_breakdown, print_trace_report, query_summaries, run_traced_queries,
    span_histograms_json, trace_summary_json, QuerySummary, TraceRunOutput,
};

/// Run the forwarding workload under several schemes in parallel (the
/// runs are independent simulations).
pub fn run_forwarding_schemes(cfg: &FwdConfig, schemes: &[Scheme]) -> Vec<(Scheme, FwdRunOutput)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = schemes
            .iter()
            .map(|&sc| scope.spawn(move || (sc, run_forwarding(sc, cfg))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scheme run panicked"))
            .collect()
    })
}

/// Run the DNS workload under several schemes in parallel.
pub fn run_dns_schemes(cfg: &DnsConfig, schemes: &[Scheme]) -> Vec<(Scheme, DnsRunOutput)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = schemes
            .iter()
            .map(|&sc| scope.spawn(move || (sc, run_dns(sc, cfg))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scheme run panicked"))
            .collect()
    })
}
pub use report::{
    emit_run_json, emit_run_json_with, emit_timeseries_json, print_cdf, print_series, print_table,
    run_json, run_json_with,
};

// The scheme enum (and its boxed-recorder factory) lives in `dpc-core`;
// the harness re-exports it so figure binaries keep a single import path.
pub use dpc_core::Scheme;

/// Shared storage/traffic measurements from one run.
#[derive(Debug, Clone)]
pub struct RunMeasurements {
    /// Final provenance storage per node, bytes.
    pub per_node_storage: Vec<usize>,
    /// Total bytes on the wire.
    pub total_traffic: u64,
    /// Total bytes per (undirected) link, sorted by endpoint pair.
    pub per_link_bytes: Vec<((NodeId, NodeId), u64)>,
    /// Output tuples derived.
    pub outputs: usize,
    /// Rule firings across all nodes.
    pub rules_fired: u64,
    /// Join probes served by a secondary index, as the runtime counted
    /// them ([`dpc_engine::RunMetrics::index_hits`]).
    pub index_hits: u64,
    /// Join probes that fell back to a scan, as the runtime counted them.
    pub index_misses: u64,
    /// Wall-clock span of the simulated run.
    pub duration: SimTime,
    /// The run's telemetry registry (counters, snapshots, series, spans).
    pub telemetry: TelemetryHandle,
}

impl RunMeasurements {
    /// `htequi` equivalence-cache `(hits, misses)` over the run — nonzero
    /// only under the Advanced schemes.
    pub fn htequi_hits_misses(&self) -> (u64, u64) {
        (
            self.telemetry.counter_total("recorder.htequi_hits"),
            self.telemetry.counter_total("recorder.htequi_misses"),
        )
    }

    /// `htequi` hit rate in `[0, 1]`, or `None` when the scheme never
    /// consulted the cache.
    pub fn htequi_hit_rate(&self) -> Option<f64> {
        let (h, m) = self.htequi_hits_misses();
        if h + m == 0 {
            None
        } else {
            Some(h as f64 / (h + m) as f64)
        }
    }

    /// Secondary-index join probe `(hits, misses)` over the run.
    pub fn index_hits_misses(&self) -> (u64, u64) {
        (self.index_hits, self.index_misses)
    }

    /// Rule plans compiled at runtime construction.
    pub fn plans_compiled(&self) -> u64 {
        self.telemetry
            .counter_total(dpc_telemetry::counters::PLANS_COMPILED)
    }

    /// Secondary-index hit ratio in `[0, 1]`, or `None` when no probes
    /// ran.
    pub fn index_hit_ratio(&self) -> Option<f64> {
        let (h, m) = self.index_hits_misses();
        if h + m == 0 {
            None
        } else {
            Some(h as f64 / (h + m) as f64)
        }
    }

    /// Total provenance storage over simulated time as `(t_ns, bytes)`,
    /// from the sampler's per-node `recorder.storage_bytes#n` series
    /// (empty when time-series sampling was off or the scheme records no
    /// provenance).
    pub fn storage_series(&self) -> Vec<(u64, f64)> {
        sum_timeseries(&self.telemetry, "recorder.storage_bytes#")
    }

    /// [`RunMeasurements::storage_series`] as `(second, total storage
    /// bytes)` snapshots ([`snapshots_from_series`]).
    pub fn storage_snapshots(&self) -> Vec<(u64, usize)> {
        snapshots_from_series(&self.storage_series())
    }

    /// Cumulative bytes on the wire over simulated time as
    /// `(t_ns, bytes)`, from the sampler's `net.bytes_total` series.
    pub fn bandwidth_series(&self) -> Vec<(u64, f64)> {
        self.telemetry
            .timeseries_get("net.bytes_total")
            .unwrap_or_default()
    }

    /// Bandwidth over simulated time as `(second, bytes/s)` rows,
    /// differentiating the cumulative [`RunMeasurements::bandwidth_series`]
    /// between adjacent sampling stamps.
    pub fn bandwidth_rate_series(&self) -> Vec<(f64, f64)> {
        let mut prev = (0u64, 0.0f64);
        let mut out = Vec::new();
        for (t, v) in self.bandwidth_series() {
            let dt = (t - prev.0) as f64 / 1e9;
            if dt > 0.0 {
                out.push((t as f64 / 1e9, (v - prev.1) / dt));
            }
            prev = (t, v);
        }
        out
    }
}

/// Sum every sampled series whose key starts with `prefix` (per-node
/// gauges like `recorder.storage_bytes#`) into one total series at the
/// union of their stamps, carrying each component's last value forward —
/// nodes sample only when they mutate, so at any given stamp some
/// components just hold their previous value.
pub fn sum_timeseries(telemetry: &TelemetryHandle, prefix: &str) -> Vec<(u64, f64)> {
    let series: Vec<Vec<(u64, f64)>> = telemetry
        .timeseries()
        .into_iter()
        .filter_map(|(k, pts)| k.starts_with(prefix).then_some(pts))
        .collect();
    let mut stamps: Vec<u64> = series.iter().flatten().map(|&(t, _)| t).collect();
    stamps.sort_unstable();
    stamps.dedup();
    let mut idx = vec![0usize; series.len()];
    let mut held = vec![0.0f64; series.len()];
    let mut out = Vec::with_capacity(stamps.len());
    for &t in &stamps {
        for (i, s) in series.iter().enumerate() {
            while idx[i] < s.len() && s[idx[i]].0 <= t {
                held[i] = s[idx[i]].1;
                idx[i] += 1;
            }
        }
        out.push((t, held.iter().sum()));
    }
    out
}

/// Collapse a `(t_ns, bytes)` storage series into the legacy
/// `(second, bytes)` snapshot shape: one entry per distinct simulated
/// second, keeping the last sample within each second.
pub fn snapshots_from_series(series: &[(u64, f64)]) -> Vec<(u64, usize)> {
    let mut out: Vec<(u64, usize)> = Vec::new();
    for &(t_ns, v) in series {
        let sec = t_ns / 1_000_000_000;
        let bytes = v as usize;
        match out.last_mut() {
            Some(last) if last.0 == sec => last.1 = bytes,
            _ => out.push((sec, bytes)),
        }
    }
    out
}

impl RunMeasurements {
    /// The measurements of a drained run whose simulated span is
    /// `duration`. The runtime must carry the telemetry registry that
    /// [`run_telemetry`] made.
    pub(crate) fn of<R: ProvRecorder>(rt: &Runtime<R>, duration: SimTime) -> RunMeasurements {
        let run = rt.metrics();
        RunMeasurements {
            per_node_storage: rt
                .net()
                .nodes()
                .map(|node| rt.recorder().storage_at(node))
                .collect(),
            total_traffic: run.total_traffic_bytes,
            per_link_bytes: rt.stats().per_link_totals(),
            outputs: run.outputs as usize,
            rules_fired: run.rules_fired,
            index_hits: run.index_hits,
            index_misses: run.index_misses,
            duration,
            telemetry: rt
                .telemetry()
                .cloned()
                .expect("every experiment runner attaches telemetry"),
        }
    }

    /// Total final storage across nodes.
    pub fn total_storage(&self) -> usize {
        self.per_node_storage.iter().sum()
    }

    /// Per-node storage growth rates in Mbps over the run, the metric of
    /// Figures 8 and 13.
    pub fn growth_rates_mbps(&self) -> Vec<f64> {
        self.per_node_storage
            .iter()
            .map(|&b| dpc_workload::mbps(b, self.duration))
            .collect()
    }
}

/// The telemetry registry of an experiment run: snapshots and time series
/// on the `every` cadence, and every `trace_sample`-th execution traced
/// (0 = span tracing off).
pub(crate) fn run_telemetry(every: SimTime, trace_sample: u64) -> TelemetryHandle {
    let telemetry = dpc_telemetry::Telemetry::handle();
    telemetry.set_snapshot_every_nanos(every.as_nanos());
    telemetry.set_timeseries(every.as_nanos(), dpc_telemetry::DEFAULT_SERIES_CAPACITY);
    if trace_sample > 0 {
        telemetry.set_span_sampling(trace_sample);
    }
    telemetry
}

/// Minimal CLI handling shared by the figure binaries: recognizes
/// `--paper-scale` and `--seed <n>`.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Run the paper's full-scale parameters.
    pub paper_scale: bool,
    /// RNG seed for topology and workload.
    pub seed: u64,
    /// Emit machine-readable JSON-lines records instead of plain text.
    pub json: bool,
    /// Record causal spans during runs that support tracing.
    pub trace: bool,
    /// Head-based sampling rate for execution traces: trace 1 in every
    /// `trace_sample` executions (1 = everything).
    pub trace_sample: u64,
    /// Emit the sampled time series (JSON-lines `series` records after
    /// the run record; implies `--json`-style machine output for them).
    pub timeseries: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            paper_scale: false,
            seed: 42,
            json: false,
            trace: false,
            trace_sample: 1,
            timeseries: false,
        }
    }
}

impl Cli {
    /// Parse from `std::env::args`, exiting with usage on bad input.
    pub fn parse() -> Cli {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(msg) => {
                eprintln!(
                    "{msg}\nusage: [--paper-scale] [--seed <n>] [--json] [--trace] [--trace-sample <n>] [--timeseries]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit argument list (testable core of
    /// [`Cli::parse`]).
    pub fn parse_from<I, S>(args: I) -> Result<Cli, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut cli = Cli::default();
        let mut args = args.into_iter().map(Into::into);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--paper-scale" => cli.paper_scale = true,
                "--json" => cli.json = true,
                "--trace" => cli.trace = true,
                "--timeseries" => cli.timeseries = true,
                "--trace-sample" => {
                    cli.trace = true;
                    cli.trace_sample = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| "--trace-sample requires an integer >= 1".to_string())?;
                }
                "--seed" => {
                    cli.seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| "--seed requires an integer".to_string())?;
                }
                "--help" | "-h" => {
                    return Err("help requested".to_string());
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(cli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_parsing() {
        let none: [&str; 0] = [];
        let cli = Cli::parse_from(none).unwrap();
        assert!(!cli.paper_scale);
        assert_eq!(cli.seed, 42);
        let cli = Cli::parse_from(["--paper-scale", "--seed", "7"]).unwrap();
        assert!(cli.paper_scale);
        assert_eq!(cli.seed, 7);
        assert!(!cli.json);
        assert!(!cli.trace);
        assert_eq!(cli.trace_sample, 1);
        assert!(Cli::parse_from(["--json"]).unwrap().json);
        let cli = Cli::parse_from(["--trace"]).unwrap();
        assert!(cli.trace);
        assert_eq!(cli.trace_sample, 1);
        let cli = Cli::parse_from(["--trace-sample", "8"]).unwrap();
        assert!(cli.trace);
        assert_eq!(cli.trace_sample, 8);
        assert!(!cli.timeseries);
        assert!(Cli::parse_from(["--timeseries"]).unwrap().timeseries);
        assert!(Cli::parse_from(["--trace-sample", "0"]).is_err());
        assert!(Cli::parse_from(["--trace-sample"]).is_err());
        assert!(Cli::parse_from(["--seed"]).is_err());
        assert!(Cli::parse_from(["--seed", "abc"]).is_err());
        assert!(Cli::parse_from(["--bogus"]).is_err());
        assert!(Cli::parse_from(["--help"]).is_err());
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Exspan.name(), "ExSPAN");
        assert_eq!(Scheme::PAPER.len(), 3);
    }

    #[test]
    fn parallel_runs_match_sequential_runs() {
        let cfg = FwdConfig {
            pairs: 4,
            rate_per_pair: 4.0,
            duration: SimTime::from_secs(1),
            ..FwdConfig::default()
        };
        let par = run_forwarding_schemes(&cfg, &Scheme::PAPER);
        for (scheme, out) in par {
            let seq = run_forwarding(scheme, &cfg);
            assert_eq!(
                out.m.total_storage(),
                seq.m.total_storage(),
                "{}",
                scheme.name()
            );
            assert_eq!(out.m.total_traffic, seq.m.total_traffic);
            assert_eq!(out.m.outputs, seq.m.outputs);
        }
    }

    /// The sampler is deterministic end to end: two runs with the same
    /// seed and cadence produce byte-identical JSON-lines exports (same
    /// keys, same aligned stamps, same values — no wall-clock leakage).
    #[test]
    fn sampler_export_is_deterministic_across_runs() {
        let cfg = FwdConfig {
            pairs: 3,
            rate_per_pair: 4.0,
            duration: SimTime::from_secs(1),
            ..FwdConfig::default()
        };
        for scheme in [Scheme::Exspan, Scheme::Advanced] {
            let a = run_forwarding(scheme, &cfg);
            let b = run_forwarding(scheme, &cfg);
            let ja = a.m.telemetry.timeseries_json_lines();
            assert_eq!(
                ja,
                b.m.telemetry.timeseries_json_lines(),
                "{}",
                scheme.name()
            );
            assert!(!ja.is_empty(), "{} sampled nothing", scheme.name());
            assert_eq!(
                a.m.telemetry.timeseries_csv(),
                b.m.telemetry.timeseries_csv()
            );
        }
    }

    #[test]
    fn sum_timeseries_carries_values_forward() {
        let t = dpc_telemetry::Telemetry::handle();
        t.set_timeseries(1, 64);
        // Node 0 samples at 1000 and 3000; node 1 only at 2000.
        let at = |stamp: u64, key: &str, v: f64| t.ts_record_all(stamp, [(key.to_string(), v)]);
        at(1000, "recorder.storage_bytes#0", 10.0);
        at(2000, "recorder.storage_bytes#1", 5.0);
        at(3000, "recorder.storage_bytes#0", 20.0);
        at(3000, "unrelated.series", 99.0);
        let total = sum_timeseries(&t, "recorder.storage_bytes#");
        assert_eq!(total, vec![(1000, 10.0), (2000, 15.0), (3000, 25.0)]);
    }

    #[test]
    fn snapshots_collapse_to_seconds_keeping_last() {
        let series = vec![
            (1_000_000_000, 10.0),
            (2_000_000_000, 20.0),
            (2_500_000_000, 30.0), // same second: keeps the later value
        ];
        assert_eq!(snapshots_from_series(&series), vec![(1, 10), (2, 30)]);
    }

    #[test]
    fn measurements_helpers() {
        let m = RunMeasurements {
            per_node_storage: vec![1_000_000, 2_000_000],
            total_traffic: 0,
            per_link_bytes: vec![],
            outputs: 0,
            rules_fired: 0,
            index_hits: 0,
            index_misses: 0,
            duration: SimTime::from_secs(8),
            telemetry: dpc_telemetry::Telemetry::handle(),
        };
        assert_eq!(m.total_storage(), 3_000_000);
        let rates = m.growth_rates_mbps();
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 2.0).abs() < 1e-9);
    }
}
