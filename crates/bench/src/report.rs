//! Figure rendering: plain-text series/rows matching the paper's plots,
//! plus the JSON-lines records behind every binary's `--json` mode.

use dpc_telemetry::counters::INDEX_HITS;
use dpc_telemetry::json::Json;
use dpc_workload::Cdf;

use crate::RunMeasurements;

/// The JSON-lines record summarizing one run: per-node storage, per-link
/// traffic, rule firings and the `htequi` hit rate — the run-level fields
/// the paper's figures are computed from. `rules_fired` and `index_hits`
/// are the runtime's own counts; `telemetry_totals` repeats them as the
/// telemetry registry counted them at the end of the run, so a consumer
/// can check the metric wiring (the last periodic snapshot precedes the
/// drain, so it cannot serve).
pub fn run_json(figure: &str, scheme: &str, m: &RunMeasurements) -> Json {
    run_json_with(figure, scheme, Vec::new(), m)
}

/// [`run_json`] with extra workload parameters (e.g. the pair count a
/// figure sweeps over) recorded under a `"params"` key.
pub fn run_json_with(
    figure: &str,
    scheme: &str,
    params: Vec<(&str, Json)>,
    m: &RunMeasurements,
) -> Json {
    let (hits, misses) = m.htequi_hits_misses();
    let (index_hits, index_misses) = m.index_hits_misses();
    let mut fields = vec![
        ("record", Json::Str("run".into())),
        ("figure", Json::Str(figure.into())),
        ("scheme", Json::Str(scheme.into())),
    ];
    if !params.is_empty() {
        fields.push(("params", Json::obj(params)));
    }
    fields.extend([
        (
            "per_node_storage_bytes",
            Json::Arr(
                m.per_node_storage
                    .iter()
                    .map(|&b| Json::UInt(b as u64))
                    .collect(),
            ),
        ),
        (
            "per_link_bytes",
            Json::Arr(
                m.per_link_bytes
                    .iter()
                    .map(|&((a, b), bytes)| {
                        Json::obj([
                            ("a", Json::UInt(a.0 as u64)),
                            ("b", Json::UInt(b.0 as u64)),
                            ("bytes", Json::UInt(bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "storage_snapshots",
            Json::Arr(
                m.storage_snapshots()
                    .into_iter()
                    .map(|(sec, bytes)| Json::Arr(vec![Json::UInt(sec), Json::UInt(bytes as u64)]))
                    .collect(),
            ),
        ),
        ("total_traffic_bytes", Json::UInt(m.total_traffic)),
        ("outputs", Json::UInt(m.outputs as u64)),
        ("rules_fired", Json::UInt(m.rules_fired)),
        ("htequi_hits", Json::UInt(hits)),
        ("htequi_misses", Json::UInt(misses)),
        (
            "htequi_hit_rate",
            m.htequi_hit_rate().map_or(Json::Null, Json::Float),
        ),
        ("index_hits", Json::UInt(index_hits)),
        ("index_misses", Json::UInt(index_misses)),
        (
            "telemetry_totals",
            Json::obj([
                (
                    "engine.rules_fired",
                    Json::UInt(m.telemetry.counter_total("engine.rules_fired")),
                ),
                (
                    INDEX_HITS,
                    Json::UInt(m.telemetry.counter_total(INDEX_HITS)),
                ),
            ]),
        ),
        (
            "index_hit_ratio",
            m.index_hit_ratio().map_or(Json::Null, Json::Float),
        ),
        ("plans_compiled", Json::UInt(m.plans_compiled())),
        ("duration_secs", Json::Float(m.duration.as_secs_f64())),
    ]);
    Json::obj(fields)
}

/// Print the run record followed by the run's periodic telemetry
/// snapshots, one JSON object per line.
pub fn emit_run_json(figure: &str, scheme: &str, m: &RunMeasurements) {
    emit_run_json_with(figure, scheme, Vec::new(), m);
}

/// [`emit_run_json`] with extra workload parameters.
pub fn emit_run_json_with(
    figure: &str,
    scheme: &str,
    params: Vec<(&str, Json)>,
    m: &RunMeasurements,
) {
    println!("{}", run_json_with(figure, scheme, params, m));
    let snaps = m.telemetry.to_json_lines();
    if !snaps.is_empty() {
        print!("{snaps}");
    }
}

/// Print the run's sampled time series as JSON-lines `series` records
/// (one per series key; empty output when sampling was off). Figure
/// binaries call this under `--timeseries`.
pub fn emit_timeseries_json(m: &RunMeasurements) {
    let series = m.telemetry.timeseries_json_lines();
    if !series.is_empty() {
        print!("{series}");
    }
}

/// Print a CDF as `value fraction` rows under a header, at a fixed set of
/// fractions plus summary statistics.
pub fn print_cdf(title: &str, unit: &str, series: &[(&str, &Cdf)]) {
    println!("# {title}");
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "p10", "p50", "p80", "p90", "max", "mean"
    );
    for (name, cdf) in series {
        println!(
            "{:<24} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            name,
            cdf.quantile(0.10),
            cdf.quantile(0.50),
            cdf.quantile(0.80),
            cdf.quantile(0.90),
            cdf.max(),
            cdf.mean(),
        );
    }
    println!("(values in {unit})");
}

/// Print an x/y series per scheme: one row per x value.
pub fn print_series(
    title: &str,
    x_label: &str,
    y_label: &str,
    xs: &[f64],
    series: &[(&str, Vec<f64>)],
) {
    println!("# {title}");
    print!("{:<12}", x_label);
    for (name, _) in series {
        print!(" {name:>22}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:<12.2}");
        for (_, ys) in series {
            match ys.get(i) {
                Some(y) => print!(" {y:>22.3}"),
                None => print!(" {:>22}", "-"),
            }
        }
        println!();
    }
    println!("(y values in {y_label})");
}

/// Print a simple key/value table.
pub fn print_table(title: &str, rows: &[(&str, String)]) {
    println!("# {title}");
    for (k, v) in rows {
        println!("{k:<40} {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_json_schema() {
        use dpc_common::NodeId;
        use dpc_netsim::SimTime;
        let telemetry = dpc_telemetry::Telemetry::handle();
        telemetry.set_timeseries(1, 64);
        for (stamp, bytes) in [(1_000_000_000, 5.0), (2_000_000_000, 30.0)] {
            telemetry.ts_record_all(stamp, [("recorder.storage_bytes#0".to_string(), bytes)]);
        }
        let m = RunMeasurements {
            per_node_storage: vec![10, 20],
            total_traffic: 7,
            per_link_bytes: vec![((NodeId(0), NodeId(1)), 7)],
            outputs: 2,
            rules_fired: 4,
            index_hits: 0,
            index_misses: 0,
            duration: SimTime::from_secs(2),
            telemetry,
        };
        let line = run_json("fig08", "ExSPAN", &m).to_string();
        assert_eq!(
            line,
            r#"{"record":"run","figure":"fig08","scheme":"ExSPAN","per_node_storage_bytes":[10,20],"per_link_bytes":[{"a":0,"b":1,"bytes":7}],"storage_snapshots":[[1,5],[2,30]],"total_traffic_bytes":7,"outputs":2,"rules_fired":4,"htequi_hits":0,"htequi_misses":0,"htequi_hit_rate":null,"index_hits":0,"index_misses":0,"telemetry_totals":{"engine.rules_fired":0,"engine.index_hits":0},"index_hit_ratio":null,"plans_compiled":0,"duration_secs":2}"#
        );
    }

    #[test]
    fn printing_does_not_panic() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0]);
        print_cdf("t", "ms", &[("a", &cdf)]);
        print_series(
            "t",
            "x",
            "MB",
            &[1.0, 2.0],
            &[("a", vec![1.0, 2.0]), ("b", vec![3.0])],
        );
        print_table("t", &[("k", "v".into())]);
    }
}
