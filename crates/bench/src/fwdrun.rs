//! The packet-forwarding experiment runner (Figures 8-12).

use dpc_common::{EvId, NodeId, Rng, SeededRng, Tuple};
use dpc_core::{
    query_advanced, query_basic, query_exspan, AdvancedRecorder, BasicRecorder, ExspanRecorder,
    QueryCtx, QueryResult,
};
use dpc_engine::{ProvRecorder, Runtime};
use dpc_ndlog::{equivalence_keys, programs};
use dpc_netsim::{topo, SimTime};
use dpc_workload::random_pairs;

use dpc_apps::forwarding;

use crate::{run_telemetry, RunMeasurements, Scheme};

/// Configuration of a forwarding run.
#[derive(Debug, Clone)]
pub struct FwdConfig {
    /// Topology/workload RNG seed.
    pub seed: u64,
    /// Number of communicating `(src, dst)` pairs.
    pub pairs: usize,
    /// Packets per second per pair (ignored when `total_packets` is set).
    pub rate_per_pair: f64,
    /// Simulated duration of the injection phase.
    pub duration: SimTime,
    /// Storage snapshot interval (the paper samples every 10 s).
    pub snapshot_every: SimTime,
    /// If set, insert a routing-table entry at this interval (the
    /// Section 5.5 update workload; triggers `sig` broadcasts).
    pub route_update_every: Option<SimTime>,
    /// If set, send exactly this many packets, evenly spread over the
    /// pairs and the duration (Figure 10/11 style).
    pub total_packets: Option<usize>,
    /// Head-based span sampling: trace every `n`-th execution (0 = span
    /// tracing off, the default; 1 = trace everything).
    pub trace_sample: u64,
    /// Transit-stub topology parameters (default: the paper's 100-node
    /// configuration). Larger topologies mean more destinations and thus
    /// bigger per-node `route` tables.
    pub topo: topo::TransitStubParams,
}

impl Default for FwdConfig {
    fn default() -> Self {
        FwdConfig {
            seed: 42,
            pairs: 20,
            rate_per_pair: 10.0,
            duration: SimTime::from_secs(10),
            snapshot_every: SimTime::from_secs(1),
            route_update_every: None,
            total_packets: None,
            trace_sample: 0,
            topo: topo::TransitStubParams::default(),
        }
    }
}

impl FwdConfig {
    /// The paper's Figure 8/9 parameters: 100 pairs at 100 packets/second
    /// each for 100 seconds. Expect ExSPAN storage in the gigabytes.
    pub fn paper_scale(seed: u64) -> FwdConfig {
        FwdConfig {
            seed,
            pairs: 100,
            rate_per_pair: 100.0,
            duration: SimTime::from_secs(100),
            snapshot_every: SimTime::from_secs(10),
            ..FwdConfig::default()
        }
    }
}

/// Output of one forwarding run.
#[derive(Debug, Clone)]
pub struct FwdRunOutput {
    /// Storage/traffic measurements.
    pub m: RunMeasurements,
    /// Packets injected.
    pub injected: usize,
}

/// Run the forwarding workload under `scheme`. The scheme-to-recorder
/// mapping is [`Scheme::recorder`]; every scheme (including
/// [`Scheme::Noop`]) runs through the same generic driver.
pub fn run_forwarding(scheme: Scheme, cfg: &FwdConfig) -> FwdRunOutput {
    run_generic(cfg, |n| scheme.recorder(&programs::packet_forwarding(), n))
}

fn run_generic<R: ProvRecorder>(cfg: &FwdConfig, make: impl FnOnce(usize) -> R) -> FwdRunOutput {
    let (rt, injected) = prepare(cfg, make);
    FwdRunOutput {
        m: drive(rt, cfg),
        injected,
    }
}

/// Build the topology, install routes, inject the whole schedule.
pub(crate) fn prepare<R: ProvRecorder>(
    cfg: &FwdConfig,
    make: impl FnOnce(usize) -> R,
) -> (Runtime<R>, usize) {
    let mut rng = SeededRng::seed_from_u64(cfg.seed);
    let ts = topo::transit_stub(&mut rng, &cfg.topo);
    let n = ts.net.node_count();
    let mut rt = forwarding::make_runtime(ts.net, make(n));
    rt.attach_telemetry(run_telemetry(cfg.snapshot_every, cfg.trace_sample));
    let pairs = random_pairs(&mut rng, &ts.stub, cfg.pairs);
    forwarding::install_routes_for_pairs(&mut rt, &pairs).expect("transit-stub is connected");
    rt.clear_stats();

    // Injection schedule.
    let mut injected = 0usize;
    match cfg.total_packets {
        Some(total) => {
            let interval = SimTime::from_nanos(cfg.duration.as_nanos() / (total as u64).max(1));
            for i in 0..total {
                let (s, d) = pairs[i % pairs.len()];
                let at = SimTime::from_nanos(interval.as_nanos() * i as u64);
                rt.inject_at(
                    forwarding::packet(s, s, d, forwarding::payload(i as u64)),
                    at,
                )
                .expect("valid packet");
                injected += 1;
            }
        }
        None => {
            let per_pair = (cfg.duration.as_secs_f64() * cfg.rate_per_pair).floor() as usize;
            let interval = SimTime::from_secs_f64(1.0 / cfg.rate_per_pair);
            for (pi, &(s, d)) in pairs.iter().enumerate() {
                for k in 0..per_pair {
                    let at = SimTime::from_nanos(interval.as_nanos() * k as u64);
                    let seq = (pi * per_pair + k) as u64;
                    rt.inject_at(forwarding::packet(s, s, d, forwarding::payload(seq)), at)
                        .expect("valid packet");
                    injected += 1;
                }
            }
        }
    }

    // Optional slow-table update workload: periodically insert a fresh
    // route entry (toward an otherwise-unused destination id) at a random
    // stub node; each insert broadcasts `sig`.
    if let Some(every) = cfg.route_update_every {
        let mut t = every;
        let mut fake_dst = 10_000u32;
        while t < cfg.duration {
            let at_node = ts.stub[rng.random_range(0..ts.stub.len())];
            let neighbor = rt
                .net()
                .neighbors(at_node)
                .next()
                .map(|(m, _)| m)
                .expect("connected topology");
            rt.update_slow_at(forwarding::route(at_node, NodeId(fake_dst), neighbor), t)
                .expect("route is slow-changing");
            fake_dst += 1;
            t += every;
        }
    }

    (rt, injected)
}

/// Drive the run to completion. Storage-over-time comes from the
/// time-series sampler (enabled on the snapshot cadence in [`prepare`]),
/// which samples inside the event loop at deterministic virtual
/// timestamps — no hand-rolled stepping loop.
fn drive<R: ProvRecorder>(mut rt: Runtime<R>, cfg: &FwdConfig) -> RunMeasurements {
    rt.run().expect("drain");
    RunMeasurements::of(&rt, rt.now().max(cfg.duration))
}

/// Run the workload under `scheme`, then execute `queries` random
/// provenance queries against random `recv` outputs and return their
/// message-level latencies in milliseconds (Figure 12).
pub fn forwarding_query_latencies(scheme: Scheme, cfg: &FwdConfig, queries: usize) -> Vec<f64> {
    let keys = || equivalence_keys(&programs::packet_forwarding());
    match scheme {
        Scheme::Noop => panic!("the Noop scheme maintains no provenance to query"),
        Scheme::Exspan => latencies(cfg, queries, ExspanRecorder::new, |c, r, t, _| {
            query_exspan(c, r, t)
        }),
        Scheme::Basic => latencies(cfg, queries, BasicRecorder::new, |c, r, t, _| {
            query_basic(c, r, t)
        }),
        Scheme::Advanced => latencies(
            cfg,
            queries,
            |n| AdvancedRecorder::new(n, keys()),
            query_advanced,
        ),
        Scheme::AdvancedInterClass => latencies(
            cfg,
            queries,
            |n| AdvancedRecorder::with_inter_class(n, keys()),
            query_advanced,
        ),
    }
}

fn latencies<R: ProvRecorder>(
    cfg: &FwdConfig,
    queries: usize,
    make: impl FnOnce(usize) -> R,
    query: impl Fn(&QueryCtx<'_>, &R, &Tuple, &EvId) -> dpc_common::Result<QueryResult>,
) -> Vec<f64> {
    let mut rng = SeededRng::seed_from_u64(cfg.seed ^ 0x51ab);
    let (mut rt, _) = prepare(cfg, make);
    rt.run().expect("drain");
    let ctx = QueryCtx::from_runtime(&rt);
    sample_outputs(&rt, queries, &mut rng)
        .iter()
        .map(|(t, evid)| {
            query(&ctx, rt.recorder(), t, evid)
                .expect("stored output is queryable")
                .latency
                .as_millis_f64()
        })
        .collect()
}

pub(crate) fn sample_outputs<R: ProvRecorder>(
    rt: &Runtime<R>,
    k: usize,
    rng: &mut SeededRng,
) -> Vec<(Tuple, EvId)> {
    let mut outs: Vec<_> = rt
        .outputs()
        .iter()
        .map(|o| (o.tuple.clone(), o.evid))
        .collect();
    rng.shuffle(&mut outs);
    outs.truncate(k);
    assert!(!outs.is_empty(), "workload produced no outputs to query");
    outs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FwdConfig {
        FwdConfig {
            pairs: 5,
            rate_per_pair: 5.0,
            duration: SimTime::from_secs(2),
            snapshot_every: SimTime::from_secs(1),
            ..FwdConfig::default()
        }
    }

    #[test]
    fn all_schemes_deliver_all_packets() {
        let cfg = tiny();
        for s in [
            Scheme::Exspan,
            Scheme::Basic,
            Scheme::Advanced,
            Scheme::AdvancedInterClass,
        ] {
            let out = run_forwarding(s, &cfg);
            assert_eq!(out.m.outputs, out.injected, "{}", s.name());
            assert!(out.m.total_storage() > 0, "{}", s.name());
        }
    }

    #[test]
    fn storage_ordering_matches_paper() {
        let cfg = tiny();
        let e = run_forwarding(Scheme::Exspan, &cfg).m.total_storage();
        let b = run_forwarding(Scheme::Basic, &cfg).m.total_storage();
        let a = run_forwarding(Scheme::Advanced, &cfg).m.total_storage();
        assert!(b < e, "basic {b} < exspan {e}");
        assert!(a < b, "advanced {a} < basic {b}");
        // With 10 packets per pair, Advanced should win by a wide margin.
        assert!(a * 3 < e, "advanced {a} should be far below exspan {e}");
    }

    #[test]
    fn snapshots_are_monotone() {
        let out = run_forwarding(Scheme::Exspan, &tiny());
        let snapshots = out.m.storage_snapshots();
        assert!(!snapshots.is_empty());
        assert!(snapshots.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn fixed_total_packet_mode() {
        let cfg = FwdConfig {
            total_packets: Some(40),
            pairs: 8,
            duration: SimTime::from_secs(2),
            ..FwdConfig::default()
        };
        let out = run_forwarding(Scheme::Advanced, &cfg);
        assert_eq!(out.injected, 40);
        assert_eq!(out.m.outputs, 40);
    }

    #[test]
    fn route_updates_add_sig_traffic() {
        let base = tiny();
        let with_updates = FwdConfig {
            route_update_every: Some(SimTime::from_millis(500)),
            ..base.clone()
        };
        let a = run_forwarding(Scheme::Advanced, &base);
        let b = run_forwarding(Scheme::Advanced, &with_updates);
        assert!(b.m.total_traffic > a.m.total_traffic);
        // The paper reports ~0.6% at its scale (updates every 10 s against
        // 500 pairs of traffic); this tiny run updates 40x as often
        // against 1/250 of the traffic, so allow a proportionally larger
        // yet still modest bound. fig11 reports the paper-scale number.
        let ratio = b.m.total_traffic as f64 / a.m.total_traffic as f64;
        assert!(ratio < 1.30, "update overhead ratio {ratio}");
    }

    #[test]
    fn query_latencies_have_paper_ordering() {
        let cfg = FwdConfig {
            pairs: 5,
            rate_per_pair: 2.0,
            duration: SimTime::from_secs(1),
            ..FwdConfig::default()
        };
        let le = forwarding_query_latencies(Scheme::Exspan, &cfg, 10);
        let lb = forwarding_query_latencies(Scheme::Basic, &cfg, 10);
        let la = forwarding_query_latencies(Scheme::Advanced, &cfg, 10);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&lb) < mean(&le),
            "basic {} < exspan {}",
            mean(&lb),
            mean(&le)
        );
        assert!(
            mean(&la) < mean(&le),
            "advanced {} < exspan {}",
            mean(&la),
            mean(&le)
        );
    }
}
