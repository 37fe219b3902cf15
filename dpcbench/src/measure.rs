//! The two measuring modes. The untraced run repeats set-up, drive and
//! queries until its time is up and reports what a user sees. The traced
//! run drives the same inputs under five configurations and attributes
//! the cost to layers.

use std::time::{Duration, Instant};

use dpc_common::NodeId;
use dpc_core::{AdvancedRecorder, ExspanRecorder, GroundTruthRecorder};
use dpc_engine::{Database, NoopRecorder, ProvRecorder, Runtime, RuntimeConfig, TeeRecorder};
use dpc_netsim::SimTime;
use dpc_telemetry::counters::{INDEX_HITS, INDEX_MISSES};

use crate::refclock::RefClock;
use crate::replay;
use crate::stats::{cpu_secs, mean, median, peak_rss_mb, quantile};
use crate::timed::Timed;
use crate::workload::{
    answered, sample_outputs, setup, Scheme, SchemeKind, SetupTimes, Size, Workload,
};
use crate::Result;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Attempts and failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Attempted.
    pub attempted: u64,
    /// Failed.
    pub failed: u64,
}

impl Tally {
    /// Failures over attempts (0 when nothing was attempted).
    pub fn frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The figures a seed fixes: equal in every run of one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed {
    /// Provenance storage over all nodes after the run drains.
    pub storage_bytes: u64,
    /// Bytes on the wire.
    pub wire_bytes: u64,
    /// Mean simulated latency of the answered queries.
    pub query_sim_ms: f64,
}

/// What the untraced run measured. Times are reference seconds
/// ([`crate::refclock`]): CPU seconds scaled by the host's speed at the
/// time.
#[derive(Debug, Clone)]
pub struct Untraced {
    /// Seed to ready runtime, per iteration.
    pub setup_s: Vec<f64>,
    /// `Runtime::run`, per timed iteration.
    pub drive_s: Vec<f64>,
    /// `Runtime::run` in unscaled CPU seconds, per timed iteration.
    pub drive_cpu_s: Vec<f64>,
    /// Microseconds of each sampled query: its median over the timed
    /// iterations, which all ask the same queries.
    pub query_us: Vec<f64>,
    /// Executions whose correct output arrived, in each iteration.
    pub delivered: usize,
    /// The host's slowdown at every probe of the reference clock.
    pub slowdowns: Vec<f64>,
    /// The figures the seed fixes.
    pub fixed: Fixed,
    /// Executions injected and failed.
    pub execs: Tally,
    /// Queries attempted and failed.
    pub queries: Tally,
}

impl Untraced {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Result<Vec<Metric>> {
        let rss = peak_rss_mb().ok_or("peak resident memory is unavailable on this platform")?;
        Ok(vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric(
                "exec_per_s",
                self.delivered as f64 / median(&self.drive_s),
                "exec/s",
            ),
            metric("query_p50_us", quantile(&self.query_us, 0.5), "us"),
            metric("query_p99_us", quantile(&self.query_us, 0.99), "us"),
            metric("query_sim_ms", self.fixed.query_sim_ms, "ms"),
            metric("storage_bytes", self.fixed.storage_bytes as f64, "B"),
            metric("wire_bytes", self.fixed.wire_bytes as f64, "B"),
            metric("peak_rss_mb", rss, "MB"),
        ])
    }
}

/// CPU seconds of `Runtime::run`: the drive phase.
fn drive<R: ProvRecorder>(rt: &mut Runtime<R>) -> Result<f64> {
    let start = cpu_secs();
    rt.run()?;
    Ok(cpu_secs() - start)
}

/// Simulated time the drive phase advances between checks for a due
/// probe of the reference clock.
const SLICE: SimTime = SimTime::from_millis(10);

/// CPU seconds of measured work between probes of the reference clock:
/// short against the seconds a host's slowdown lasts, long against one
/// probe.
const PROBE_EVERY: f64 = 0.03;

/// The drive phase, in [`SLICE`]s up to `last_input` and then to the
/// end, with the reference clock probed every [`PROBE_EVERY`] CPU
/// seconds: its reference seconds and its CPU seconds.
fn drive_ref<R: ProvRecorder>(
    rt: &mut Runtime<R>,
    last_input: SimTime,
    clock: &mut RefClock,
) -> Result<(f64, f64)> {
    let (mut ref_s, mut cpu_s, mut pending) = (0.0, 0.0, 0.0);
    let mut bound = SimTime::ZERO;
    clock.mark();
    loop {
        let done = bound > last_input;
        let start = cpu_secs();
        if done {
            rt.run()?;
        } else {
            bound += SLICE;
            rt.run_until(bound)?;
        }
        pending += cpu_secs() - start;
        if done || pending >= PROBE_EVERY {
            cpu_s += pending;
            ref_s += clock.scale(pending);
            pending = 0.0;
        }
        if done {
            return Ok((ref_s, cpu_s));
        }
    }
}

/// Run the untraced configuration: set up, drive and query, repeated
/// while another iteration fits in `seconds`. The first iteration warms
/// the process; its drive phase and queries are not timed. At least one
/// timed iteration follows it.
pub fn untraced(w: &Workload, size: &Size, seed: u64, seconds: f64) -> Result<Untraced> {
    match w.scheme {
        SchemeKind::Advanced => untraced_with::<AdvancedRecorder>(w, size, seed, seconds),
        SchemeKind::Exspan => untraced_with::<ExspanRecorder>(w, size, seed, seconds),
    }
}

fn untraced_with<S: Scheme>(
    w: &Workload,
    size: &Size,
    seed: u64,
    seconds: f64,
) -> Result<Untraced> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut clock = RefClock::new();
    let (mut setup_s, mut drive_s, mut drive_cpu_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut query_runs: Vec<Vec<f64>> = Vec::new();
    let (mut execs, mut queries) = (Tally::default(), Tally::default());
    let mut fixed: Option<Fixed> = None;
    let mut delivered;
    loop {
        let timed = fixed.is_some();
        let began = Instant::now();
        clock.mark();
        let mut ready = setup(w, size, seed, true, S::build)?;
        setup_s.push(clock.scale(ready.times.total()));
        let last_input = ready.inputs.iter().map(|&(_, at)| at).max();
        let (ref_s, cpu_s) = drive_ref(&mut ready.rt, last_input.unwrap_or_default(), &mut clock)?;
        if timed {
            drive_s.push(ref_s);
            drive_cpu_s.push(cpu_s);
        }
        let injected = ready.inputs.len();
        delivered = ready.delivered();
        execs.attempted += injected as u64;
        execs.failed += (injected - delivered) as u64;

        let mut sim_ms = Vec::new();
        let sample = sample_outputs(&ready.rt, seed, size.queries);
        let mut query_us = Vec::with_capacity(sample.len());
        let (mut batch, mut pending) = (0, 0.0);
        clock.mark();
        for (i, out) in sample.iter().enumerate() {
            let start = cpu_secs();
            let res = ready.rt.recorder().query(&ready.rt, out);
            let secs = cpu_secs() - start;
            query_us.push(secs);
            pending += secs;
            queries.attempted += 1;
            match answered(out, &res) {
                Some(q) => sim_ms.push(q.latency.as_millis_f64()),
                None => queries.failed += 1,
            }
            if pending >= PROBE_EVERY || i + 1 == sample.len() {
                let factor = clock.scale(pending) / pending * 1e6;
                query_us[batch..].iter_mut().for_each(|s| *s *= factor);
                batch = i + 1;
                pending = 0.0;
            }
        }
        if timed {
            query_runs.push(query_us);
        }
        let run = ready.rt.metrics();
        let this = Fixed {
            storage_bytes: run.total_storage_bytes as u64,
            wire_bytes: run.total_traffic_bytes,
            query_sim_ms: mean(&sim_ms),
        };
        if let Some(first) = fixed {
            if first != this {
                return Err(
                    format!("iterations of one seed disagree: {first:?} then {this:?}").into(),
                );
            }
        }
        fixed = Some(this);
        drop(ready);
        // Stop before an iteration that would overrun the deadline.
        if timed && Instant::now() + began.elapsed() >= deadline {
            break;
        }
    }
    Ok(Untraced {
        setup_s,
        drive_s,
        drive_cpu_s,
        query_us: (0..query_runs[0].len())
            .map(|q| median(&query_runs.iter().map(|run| run[q]).collect::<Vec<_>>()))
            .collect(),
        delivered,
        slowdowns: clock.slowdowns(),
        fixed: fixed.ok_or("the run made no iteration")?,
        execs,
        queries,
    })
}

/// What the traced run measured.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub layers: Vec<Metric>,
    /// Figures printed beside the metrics but kept out of the summary,
    /// because they are zero or undefined on some workload.
    pub notes: Vec<String>,
    /// The figures the seed fixes, from the same inputs.
    pub fixed: Fixed,
    /// Executions injected and failed.
    pub execs: Tally,
    /// Queries attempted, and those that failed or disagreed with the
    /// ground truth.
    pub queries: Tally,
}

impl Traced {
    /// The value of the per-layer metric `name`.
    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Run the traced configuration once.
pub fn traced(w: &Workload, size: &Size, seed: u64) -> Result<Traced> {
    match w.scheme {
        SchemeKind::Advanced => traced_with::<AdvancedRecorder>(w, size, seed),
        SchemeKind::Exspan => traced_with::<ExspanRecorder>(w, size, seed),
    }
}

/// Fail when a replay or the traced run drifts from the run it measures.
fn same(what: &str, replayed: u64, run: u64) -> Result<()> {
    if replayed == run {
        Ok(())
    } else {
        Err(format!("replay drifted from the run: {what} is {replayed}, the run had {run}").into())
    }
}

fn traced_with<S: Scheme>(w: &Workload, size: &Size, seed: u64) -> Result<Traced> {
    let cfg = RuntimeConfig::default();
    let mut setups: Vec<SetupTimes> = Vec::new();

    // A: the untraced configuration. Its counts are the reference every
    // replay must reproduce.
    let mut a = setup(w, size, seed, true, S::build)?;
    setups.push(a.times);
    let drive_tel = drive(&mut a.rt)?;
    let run = a.rt.metrics();
    let injected = a.inputs.len() as u64;
    let execs = Tally {
        attempted: injected,
        failed: injected - a.delivered() as u64,
    };
    let tel =
        a.rt.telemetry()
            .cloned()
            .ok_or("set-up attaches telemetry")?;
    let probes = tel.counter_total(INDEX_HITS) + tel.counter_total(INDEX_MISSES);
    let (eq_hits, eq_misses) = (
        tel.counter_total("recorder.htequi_hits"),
        tel.counter_total("recorder.htequi_misses"),
    );
    let series_points: usize = tel.timeseries().iter().map(|(_, pts)| pts.len()).sum();
    // One `Telemetry::trace` write per counted event at each call site.
    let trace_events = injected
        + eq_hits
        + eq_misses
        + 2 * run.rules_fired
        + run.outputs
        + tel.counter_total("net.msgs_sent")
        + tel.counter_total("net.msgs_dropped")
        + tel.counter_total("engine.sigs_received");
    let net_messages = a.rt.stats().messages();
    let nodes = a.rt.net().node_count();
    let (db_rows, db_bytes) = (0..nodes)
        .map(|i| a.rt.db(NodeId(i as u32)))
        .fold((0, 0), |(r, b), db| {
            (r + db.len(), b + db.estimated_bytes())
        });
    drop(a);

    // B and C: telemetry off, with the scheme and without provenance.
    // Their difference is the provenance tax.
    let mut b = setup(w, size, seed, false, S::build)?;
    setups.push(b.times);
    let drive_plain = drive(&mut b.rt)?;
    drop(b);
    let mut c = setup(w, size, seed, false, |_, _| NoopRecorder)?;
    setups.push(c.times);
    let drive_noop = drive(&mut c.rt)?;
    drop(c);

    // D: A plus the timing wrapper, whose message log the replays feed
    // through single layers.
    let mut d = setup(w, size, seed, true, |delp, n| {
        Timed::new(S::build(delp, n), cfg.header_bytes)
    })?;
    setups.push(d.times);
    let before: Vec<Database> = (0..nodes)
        .map(|i| d.rt.db(NodeId(i as u32)).clone())
        .collect();
    let drive_traced = drive(&mut d.rt)?;
    if d.rt.metrics() != run {
        return Err(format!(
            "the wrapped run diverged: {:?}, the untraced run had {run:?}",
            d.rt.metrics()
        )
        .into());
    }
    let hooks = d.rt.recorder().hooks;
    same("recorder.on_input_calls", hooks.on_input.calls, injected)?;
    same(
        "recorder.on_rule_calls",
        hooks.on_rule.calls,
        run.rules_fired,
    )?;
    same(
        "recorder.on_output_calls",
        hooks.on_output.calls,
        run.outputs,
    )?;
    let log = d.rt.recorder().log();
    let mut schedule = Vec::with_capacity(d.inputs.len());
    for (exec, (tuple, at)) in d.inputs.iter().enumerate() {
        let msg = log
            .input(exec)
            .ok_or("an input never reached the recorder")?;
        schedule.push((msg, tuple.loc()?, *at));
    }
    let net = replay::netsim(d.rt.net(), log, &schedule, &cfg)?;
    same("netsim.messages", net.messages, net_messages)?;
    same("netsim bytes", net.bytes, run.total_traffic_bytes)?;
    let plan = replay::plans(d.rt.delp(), d.rt.fns(), before, log, &net.order)?;
    let replay_probes = plan.stats.index_hits + plan.stats.index_misses;
    same("plan.firings", plan.firings, run.rules_fired)?;
    same("plan.index_probes", replay_probes, probes)?;
    let insert_s = replay::inserts(nodes, log, &net.order);
    let digests = replay::digests(log);
    drop(d);

    // E: the scheme beside the ground-truth recorder. Every sampled
    // query's tree must equal the tree the execution produced
    // (Theorems 3 and 5).
    let mut e = setup(w, size, seed, false, |delp, n| {
        TeeRecorder::new(S::build(delp, n), GroundTruthRecorder::new())
    })?;
    setups.push(e.times);
    drive(&mut e.rt)?;
    let mut queries = Tally::default();
    let (mut busy, mut q_messages, mut q_bytes, mut matches) = (0.0, 0u64, 0u64, 0u64);
    let mut sim_ms = Vec::new();
    for out in sample_outputs(&e.rt, seed, size.queries) {
        let start = cpu_secs();
        let res = e.rt.recorder().primary.query(&e.rt, &out);
        busy += cpu_secs() - start;
        queries.attempted += 1;
        let truth = e.rt.recorder().shadow.tree_for(&out.tuple, &out.evid);
        match answered(&out, &res) {
            Some(q) if truth == Some(&q.tree) => {
                matches += 1;
                q_messages += q.messages;
                q_bytes += q.bytes;
                sim_ms.push(q.latency.as_millis_f64());
            }
            _ => queries.failed += 1,
        }
    }
    drop(e);

    let phase = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let hook_s = hooks.secs();
    let layers = vec![
        metric("netsim.messages", net_messages as f64, "count"),
        metric("netsim.busy_s", net.busy_s, "s"),
        metric("plan.eval_s", plan.eval_s, "s"),
        metric("plan.firings", plan.firings as f64, "count"),
        metric("plan.index_probes", replay_probes as f64, "count"),
        metric(
            "plan.index_hit_ratio",
            plan.stats.index_hits as f64 / replay_probes as f64,
            "ratio",
        ),
        metric("db.insert_s", insert_s, "s"),
        metric("db.rows", db_rows as f64, "count"),
        metric("db.bytes", db_bytes as f64, "B"),
        metric("tuple.vid_s", digests.vid_s, "s"),
        metric("tuple.bytes_hashed", digests.bytes_hashed as f64, "B"),
        metric("recorder.hook_s", hook_s, "s"),
        metric("recorder.on_input_s", hooks.on_input.secs(), "s"),
        metric(
            "recorder.on_input_calls",
            hooks.on_input.calls as f64,
            "count",
        ),
        metric("recorder.on_rule_s", hooks.on_rule.secs(), "s"),
        metric(
            "recorder.on_rule_calls",
            hooks.on_rule.calls as f64,
            "count",
        ),
        metric("recorder.on_output_s", hooks.on_output.secs(), "s"),
        metric(
            "recorder.on_output_calls",
            hooks.on_output.calls as f64,
            "count",
        ),
        metric("recorder.tax_s", drive_plain - drive_noop, "s"),
        metric("telemetry.overhead_s", drive_tel - drive_plain, "s"),
        metric(
            "telemetry.overhead_frac",
            (drive_tel - drive_plain) / drive_plain,
            "ratio",
        ),
        metric("telemetry.series_points", series_points as f64, "count"),
        metric("telemetry.trace_events", trace_events as f64, "count"),
        metric("query.busy_s", busy, "s"),
        metric("query.messages", q_messages as f64, "count"),
        metric("query.bytes", q_bytes as f64, "B"),
        metric("query.truth_matches", matches as f64, "count"),
        metric("setup.topo_s", phase(|t| t.topo_s), "s"),
        metric("setup.build_s", phase(|t| t.build_s), "s"),
        metric("setup.install_s", phase(|t| t.install_s), "s"),
        metric("setup.inject_s", phase(|t| t.inject_s), "s"),
        metric(
            "engine.residual_s",
            drive_plain - (net.busy_s + plan.eval_s + insert_s + digests.vid_s + hook_s),
            "s",
        ),
        metric("trace.overhead_s", drive_traced - drive_tel, "s"),
    ];
    let htequi = if eq_hits + eq_misses == 0 {
        "n/a: the scheme keeps no equivalence table".to_string()
    } else {
        format!(
            "{} ratio ({eq_hits} hits of {} lookups)",
            eq_hits as f64 / (eq_hits + eq_misses) as f64,
            eq_hits + eq_misses
        )
    };
    let notes = vec![
        format!("recorder.htequi_hit_ratio    {htequi}"),
        format!(
            "recorder.on_sig_s            {} s over {} calls (the workload updates no slow table)",
            hooks.on_sig.secs(),
            hooks.on_sig.calls
        ),
        format!(
            "drive phases                 telemetry on {drive_tel} s, off {drive_plain} s, \
             no provenance {drive_noop} s, traced {drive_traced} s"
        ),
    ];
    Ok(Traced {
        layers,
        notes,
        fixed: Fixed {
            storage_bytes: run.total_storage_bytes as u64,
            wire_bytes: run.total_traffic_bytes,
            query_sim_ms: mean(&sim_ms),
        },
        execs,
        queries,
    })
}
