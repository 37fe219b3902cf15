//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! dpcbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints one metric per line with its unit, then a JSON summary as the
//! last line of standard output: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of the traced run with `--trace 1`. A run whose
//! replay drifts from it, or whose figures disagree across iterations,
//! exits 1 without a summary.

use std::process::ExitCode;
use std::time::Instant;

use dpcbench::stats::{median, quantile};
use dpcbench::{traced, untraced, Metric, Size, Tally, Workload, WORKLOADS};

const USAGE: &str = "usage: dpcbench --workload <name> --seed <n> --seconds <n> --trace <0|1>";

/// Caveats the traced run prints beside its numbers.
const CAVEATS: &str = "\
note: digests are cached on each tuple (OnceLock), so in-run hook times charge SHA-1 to the
      first layer that touches a tuple; ExSPAN's on_rule digests every head it records.
note: tuple.vid_s, timed on fresh copies of every derived tuple, is the digest layer's own cost.
note: trace.overhead_s is the timing wrapper's own cost: traced drive phase minus untraced.
note: engine.residual_s is approximate: the telemetry-off drive phase minus the replayed busy
      times and the hook time, which overlap where hooks compute first-touch digests.";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload `{value}`; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed needs an integer, got `{value}`"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=86_400.0).contains(s))
                    .ok_or_else(|| format!("--seconds needs 0 to 86400, got `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("dpcbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let summary = if args.trace {
        report_traced(&args)
    } else {
        report_untraced(&args)
    };
    match summary {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dpcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report_untraced(args: &Args) -> dpcbench::Result<String> {
    let start = Instant::now();
    let u = untraced(&args.workload, &Size::BENCH, args.seed, args.seconds)?;
    let metrics = u.end_to_end()?;
    println!(
        "{} seed {}: untraced, {} iterations ({} timed) in {:.1} s",
        args.workload.name,
        args.seed,
        u.setup_s.len(),
        u.drive_s.len(),
        start.elapsed().as_secs_f64()
    );
    print_metrics(&metrics);
    println!(
        "{:<28} {} queries, each the median of {} timed iterations",
        "query samples",
        u.query_us.len(),
        u.drive_s.len()
    );
    println!(
        "{:<28} {} exec/s unscaled (median drive phase {} CPU s)",
        "exec_per_s_cpu",
        u.delivered as f64 / median(&u.drive_cpu_s),
        median(&u.drive_cpu_s)
    );
    let slow = u.slowdowns;
    println!(
        "{:<28} min {:.3}, median {:.3}, max {:.3} over {} probes",
        "host slowdown",
        quantile(&slow, 0.0),
        median(&slow),
        quantile(&slow, 1.0),
        slow.len()
    );
    print_tally("exec_fail_frac", &u.execs);
    print_tally("query_fail_frac", &u.queries);
    summary(&metrics, &u.execs, &u.queries)
}

fn report_traced(args: &Args) -> dpcbench::Result<String> {
    let start = Instant::now();
    let t = traced(&args.workload, &Size::BENCH, args.seed)?;
    println!(
        "{} seed {}: traced in {:.1} s; replay-fidelity checks passed",
        args.workload.name,
        args.seed,
        start.elapsed().as_secs_f64()
    );
    print_metrics(&t.layers);
    for note in &t.notes {
        println!("{note}");
    }
    println!("{CAVEATS}");
    print_tally("exec_fail_frac", &t.execs);
    print_tally("query_fail_frac", &t.queries);
    summary(&t.layers, &t.execs, &t.queries)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<28} {} {}", m.name, m.value, m.unit);
    }
}

fn print_tally(name: &str, t: &Tally) {
    println!("{name:<28} {} ({} of {})", t.frac(), t.failed, t.attempted);
}

/// The one-line JSON summary.
fn summary(metrics: &[Metric], execs: &Tally, queries: &Tally) -> dpcbench::Result<String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number", m.name).into());
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    let failed = execs.failed + queries.failed;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        execs.attempted + queries.attempted,
        fields.join(", ")
    ))
}
