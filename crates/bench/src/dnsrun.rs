//! The DNS resolution experiment runner (Figures 13-16).

use dpc_common::SeededRng;
use dpc_engine::ProvRecorder;
use dpc_ndlog::programs;
use dpc_netsim::{topo, SimTime};
use dpc_workload::Zipf;

use dpc_apps::dns;

use crate::{run_telemetry, RunMeasurements, Scheme};

/// Configuration of a DNS run.
#[derive(Debug, Clone)]
pub struct DnsConfig {
    /// Topology/workload RNG seed.
    pub seed: u64,
    /// Number of nameservers (the paper uses 100, max depth 27).
    pub servers: usize,
    /// Number of distinct URLs (the paper uses 38).
    pub urls: usize,
    /// Requests per second.
    pub rate: f64,
    /// Simulated duration of the injection phase.
    pub duration: SimTime,
    /// Storage snapshot interval.
    pub snapshot_every: SimTime,
    /// If set, send exactly this many requests, evenly spaced (Figure
    /// 14/15 style).
    pub total_requests: Option<usize>,
}

impl Default for DnsConfig {
    fn default() -> Self {
        DnsConfig {
            seed: 42,
            servers: 100,
            urls: 38,
            rate: 200.0,
            duration: SimTime::from_secs(10),
            snapshot_every: SimTime::from_secs(1),
            total_requests: None,
        }
    }
}

impl DnsConfig {
    /// The paper's Figure 13/16 parameters: 1000 requests/second over
    /// 100 seconds.
    pub fn paper_scale(seed: u64) -> DnsConfig {
        DnsConfig {
            seed,
            rate: 1000.0,
            duration: SimTime::from_secs(100),
            snapshot_every: SimTime::from_secs(10),
            ..DnsConfig::default()
        }
    }
}

/// Output of one DNS run.
#[derive(Debug, Clone)]
pub struct DnsRunOutput {
    /// Storage/traffic measurements.
    pub m: RunMeasurements,
    /// Requests injected.
    pub injected: usize,
    /// Requests that resolved (produced a `reply`).
    pub resolved: usize,
}

/// Run the DNS workload under `scheme` via the [`Scheme::recorder`]
/// factory.
pub fn run_dns(scheme: Scheme, cfg: &DnsConfig) -> DnsRunOutput {
    run_generic(cfg, |n| scheme.recorder(&programs::dns_resolution(), n))
}

fn run_generic<R: ProvRecorder>(cfg: &DnsConfig, make: impl FnOnce(usize) -> R) -> DnsRunOutput {
    let mut rng = SeededRng::seed_from_u64(cfg.seed);
    let tree = topo::tree(
        &mut rng,
        &topo::TreeParams {
            nodes: cfg.servers,
            ..topo::TreeParams::default()
        },
    );
    let n = tree.net.node_count();
    let mut rt = dns::make_runtime(&tree, make(n));
    rt.attach_telemetry(run_telemetry(cfg.snapshot_every, 0));
    // A single client (the root node's host role): equivalence classes are
    // then exactly the URLs, matching the paper's Figure 14 discussion.
    let client = tree.root;
    let dep = dns::deploy(&mut rt, &tree, cfg.urls, &[client]).expect("enough servers for URLs");
    rt.clear_stats();

    // Zipfian request stream: URL popularity follows classic Zipf
    // (exponent 1.0), after Jung et al.'s observation the paper cites.
    let zipf = Zipf::new(dep.urls.len(), 1.0);
    let total = cfg
        .total_requests
        .unwrap_or((cfg.rate * cfg.duration.as_secs_f64()).floor() as usize);
    let interval = SimTime::from_nanos(cfg.duration.as_nanos() / (total as u64).max(1));
    for i in 0..total {
        let url = &dep.urls[zipf.sample(&mut rng)].0;
        let at = SimTime::from_nanos(interval.as_nanos() * i as u64);
        rt.inject_at(dns::url_event(client, url.clone(), i as i64), at)
            .expect("valid url event");
    }

    // Drive to completion: storage-over-time comes from the sampler
    // (enabled on the snapshot cadence above) instead of a hand-rolled
    // stepping loop.
    rt.run().expect("drain");
    let m = RunMeasurements::of(&rt, rt.now().max(cfg.duration));
    DnsRunOutput {
        resolved: m.outputs,
        m,
        injected: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DnsConfig {
        DnsConfig {
            servers: 30,
            urls: 10,
            rate: 50.0,
            duration: SimTime::from_secs(2),
            ..DnsConfig::default()
        }
    }

    #[test]
    fn every_request_resolves() {
        for s in Scheme::PAPER {
            let out = run_dns(s, &tiny());
            assert_eq!(out.resolved, out.injected, "{}", s.name());
        }
    }

    #[test]
    fn storage_ordering_matches_paper() {
        let cfg = tiny();
        let e = run_dns(Scheme::Exspan, &cfg).m.total_storage();
        let b = run_dns(Scheme::Basic, &cfg).m.total_storage();
        let a = run_dns(Scheme::Advanced, &cfg).m.total_storage();
        assert!(b < e, "basic {b} < exspan {e}");
        assert!(a < b, "advanced {a} < basic {b}");
    }

    #[test]
    fn advanced_bandwidth_overhead_is_visible_for_dns() {
        // Figure 15: DNS requests carry no payload, so Advanced's metadata
        // shows up as measurably higher bandwidth than Basic/ExSPAN.
        let cfg = tiny();
        let e = run_dns(Scheme::Exspan, &cfg).m.total_traffic as f64;
        let a = run_dns(Scheme::Advanced, &cfg).m.total_traffic as f64;
        let ratio = a / e;
        assert!(ratio > 1.05, "ratio {ratio} should exceed 1.05");
        assert!(ratio < 1.80, "ratio {ratio} should stay moderate");
    }

    #[test]
    fn fixed_total_requests_mode() {
        let cfg = DnsConfig {
            total_requests: Some(60),
            ..tiny()
        };
        let out = run_dns(Scheme::Advanced, &cfg);
        assert_eq!(out.injected, 60);
        assert_eq!(out.resolved, 60);
    }

    #[test]
    fn advanced_storage_scales_with_urls_not_requests() {
        // Figure 14's mechanism: with requests fixed, more URLs means more
        // equivalence classes and thus more Advanced storage.
        let few = DnsConfig {
            urls: 5,
            total_requests: Some(100),
            ..tiny()
        };
        let many = DnsConfig {
            urls: 20,
            total_requests: Some(100),
            ..tiny()
        };
        let a_few = run_dns(Scheme::Advanced, &few).m.total_storage();
        let a_many = run_dns(Scheme::Advanced, &many).m.total_storage();
        assert!(a_many > a_few, "{a_many} > {a_few}");
        // ExSPAN's storage instead tracks the request count.
        let e_few = run_dns(Scheme::Exspan, &few).m.total_storage();
        let e_many = run_dns(Scheme::Exspan, &many).m.total_storage();
        let drift = (e_many as f64 - e_few as f64).abs() / e_few as f64;
        assert!(drift < 0.35, "ExSPAN drift {drift} should be modest");
    }
}
