//! The workloads: inputs generated from a seed, set-up through the
//! `dpc_apps` deployment helpers, the provenance scheme under test, and
//! the checks that every execution and every query produced the right
//! result.

use std::collections::HashMap;

use dpc_apps::{dns, forwarding};
use dpc_common::{NodeId, Rng, SeededRng, Tuple, Value};
use dpc_core::{
    simulate_query_advanced, simulate_query_exspan, AdvancedRecorder, ExspanRecorder,
    QueryCostModel, SimulatedQuery,
};
use dpc_engine::{OutputRecord, ProvRecorder, Runtime};
use dpc_ndlog::{equivalence_keys, programs, Delp};
use dpc_netsim::{topo, SimTime};
use dpc_telemetry::{Telemetry, TelemetryHandle};
use dpc_workload::{random_pairs, Zipf};

use crate::stats::cpu_secs;
use crate::Result;

/// The application a workload deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Packet forwarding over a transit-stub network (Figures 8-12).
    Forwarding,
    /// Recursive DNS resolution over a nameserver tree (Figures 13-16).
    Dns,
}

/// The provenance scheme a workload maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Equivalence-based compression (Section 5).
    Advanced,
    /// The uncompressed ExSPAN baseline (Section 2.2).
    Exspan,
}

/// A named workload: an application, its inputs and a scheme.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// The deployed application.
    pub app: App,
    /// The scheme under test.
    pub scheme: SchemeKind,
}

/// Every workload. `README.md` records why each was chosen.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fwd-advanced",
        app: App::Forwarding,
        scheme: SchemeKind::Advanced,
    },
    Workload {
        name: "fwd-exspan",
        app: App::Forwarding,
        scheme: SchemeKind::Exspan,
    },
    Workload {
        name: "dns-advanced",
        app: App::Dns,
        scheme: SchemeKind::Advanced,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Transit nodes of the forwarding topology.
    pub transit_nodes: usize,
    /// Stub domains per transit node.
    pub stub_domains: usize,
    /// Nodes per stub domain.
    pub stub_nodes: usize,
    /// Communicating stub pairs.
    pub pairs: usize,
    /// Packets each pair sends.
    pub packets_per_pair: usize,
    /// Nameservers of the DNS tree.
    pub dns_servers: usize,
    /// Distinct URLs deployed.
    pub dns_urls: usize,
    /// DNS requests from the root client.
    pub dns_requests: usize,
    /// Provenance queries per run.
    pub queries: usize,
}

impl Size {
    /// The benchmark scale: `bench_pr3`'s 972-node forwarding run and
    /// 12,000-URL DNS deployment, with four times its DNS requests so the
    /// DNS drive phase lasts seconds.
    pub const BENCH: Size = Size {
        transit_nodes: 12,
        stub_domains: 5,
        stub_nodes: 16,
        pairs: 3600,
        packets_per_pair: 5,
        dns_servers: 100,
        dns_urls: 12_000,
        dns_requests: 20_000,
        queries: 1000,
    };

    /// A scale that runs in well under a second in a debug build, for
    /// tests.
    pub const SMALL: Size = Size {
        transit_nodes: 4,
        stub_domains: 3,
        stub_nodes: 8,
        pairs: 40,
        packets_per_pair: 5,
        dns_servers: 30,
        dns_urls: 200,
        dns_requests: 400,
        queries: 50,
    };
}

/// Simulated time between a forwarding pair's packets (`bench_pr3`'s 0.5
/// packets per second per pair).
const PACKET_INTERVAL: SimTime = SimTime::from_secs(2);

/// DNS requests per simulated second (`bench_pr3`'s rate).
const DNS_RATE: u64 = 500;

/// Seed of the transit-stub network and of the nameserver tree, which
/// every run shares (the figure runners' default seed). The topology sets
/// each execution's hop count, so drawing it from `--seed` moved drive
/// time, wire bytes and simulated query latency by up to 30% between
/// seeds; the seed draws the stub pairs and the request stream.
const TOPOLOGY_SEED: u64 = 42;

/// Mixed into the seed of the query sample, so the sample does not reuse
/// the inputs' random stream.
const QUERY_SALT: u64 = 0x51ab;

/// CPU seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Topology and workload generation.
    pub topo_s: f64,
    /// Program parse, plan compile and runtime construction.
    pub build_s: f64,
    /// Route installation or DNS deployment.
    pub install_s: f64,
    /// Scheduling every input event.
    pub inject_s: f64,
}

impl SetupTimes {
    /// Seconds from seed to a runtime ready to run.
    pub fn total(&self) -> f64 {
        self.topo_s + self.build_s + self.install_s + self.inject_s
    }
}

/// A runtime with every input scheduled, ready for [`Runtime::run`].
pub struct Ready<R> {
    /// The runtime.
    pub rt: Runtime<R>,
    /// Input events in execution-id order, with their injection times.
    pub inputs: Vec<(Tuple, SimTime)>,
    /// How long each set-up phase took.
    pub times: SetupTimes,
    /// `(url, owner, ip)` of every deployed URL (empty for forwarding).
    urls: Vec<(String, NodeId, String)>,
}

/// Measures consecutive phases in CPU seconds ([`cpu_secs`]).
struct Lap(f64);

impl Lap {
    fn start() -> Lap {
        Lap(cpu_secs())
    }

    fn split(&mut self) -> f64 {
        let now = cpu_secs();
        let secs = now - self.0;
        self.0 = now;
        secs
    }
}

/// Telemetry as the figure runners attach it: periodic snapshots and
/// time series every simulated second, span tracing off.
fn runner_telemetry() -> TelemetryHandle {
    let t = Telemetry::handle();
    let every = SimTime::from_secs(1).as_nanos();
    t.set_snapshot_every_nanos(every);
    t.set_timeseries(every, dpc_telemetry::DEFAULT_SERIES_CAPACITY);
    t
}

/// Generate the workload's inputs from `seed` and build a runtime whose
/// recorder `make` returns for the program and node count. With
/// `telemetry`, the runtime carries the figure runners' telemetry.
pub fn setup<R: ProvRecorder>(
    w: &Workload,
    size: &Size,
    seed: u64,
    telemetry: bool,
    make: impl FnOnce(&Delp, usize) -> R,
) -> Result<Ready<R>> {
    match w.app {
        App::Forwarding => setup_forwarding(size, seed, telemetry, make),
        App::Dns => setup_dns(size, seed, telemetry, make),
    }
}

fn setup_forwarding<R: ProvRecorder>(
    size: &Size,
    seed: u64,
    telemetry: bool,
    make: impl FnOnce(&Delp, usize) -> R,
) -> Result<Ready<R>> {
    let mut lap = Lap::start();
    let ts = topo::transit_stub(
        &mut SeededRng::seed_from_u64(TOPOLOGY_SEED),
        &topo::TransitStubParams {
            transit_nodes: size.transit_nodes,
            stub_domains_per_transit: size.stub_domains,
            stub_nodes_per_domain: size.stub_nodes,
            ..Default::default()
        },
    );
    let pairs = random_pairs(&mut SeededRng::seed_from_u64(seed), &ts.stub, size.pairs);
    let topo_s = lap.split();

    let nodes = ts.net.node_count();
    let recorder = make(&programs::packet_forwarding(), nodes);
    let mut rt = forwarding::make_runtime(ts.net, recorder);
    if telemetry {
        rt.attach_telemetry(runner_telemetry());
    }
    let build_s = lap.split();

    forwarding::install_routes_for_pairs(&mut rt, &pairs)?;
    rt.clear_stats();
    let install_s = lap.split();

    let mut inputs = Vec::with_capacity(pairs.len() * size.packets_per_pair);
    for (p, &(src, dst)) in pairs.iter().enumerate() {
        for k in 0..size.packets_per_pair {
            let at = SimTime::from_nanos(PACKET_INTERVAL.as_nanos() * k as u64);
            let seq = (p * size.packets_per_pair + k) as u64;
            let packet = forwarding::packet(src, src, dst, forwarding::payload(seq));
            rt.inject_at(packet.clone(), at)?;
            inputs.push((packet, at));
        }
    }
    let inject_s = lap.split();
    Ok(Ready {
        rt,
        inputs,
        times: SetupTimes {
            topo_s,
            build_s,
            install_s,
            inject_s,
        },
        urls: Vec::new(),
    })
}

fn setup_dns<R: ProvRecorder>(
    size: &Size,
    seed: u64,
    telemetry: bool,
    make: impl FnOnce(&Delp, usize) -> R,
) -> Result<Ready<R>> {
    let mut lap = Lap::start();
    let tree = topo::tree(
        &mut SeededRng::seed_from_u64(TOPOLOGY_SEED),
        &topo::TreeParams {
            nodes: size.dns_servers,
            ..Default::default()
        },
    );
    let topo_s = lap.split();

    let recorder = make(&programs::dns_resolution(), tree.net.node_count());
    let mut rt = dns::make_runtime(&tree, recorder);
    if telemetry {
        rt.attach_telemetry(runner_telemetry());
    }
    let build_s = lap.split();

    // A single client at the root: the equivalence classes are then
    // exactly the URLs, as in the paper's Figure 14 discussion.
    let client = tree.root;
    let dep = dns::deploy(&mut rt, &tree, size.dns_urls, &[client])?;
    rt.clear_stats();
    let install_s = lap.split();

    let mut rng = SeededRng::seed_from_u64(seed);
    let zipf = Zipf::new(dep.urls.len(), 1.0);
    let interval = SimTime::from_secs(1).as_nanos() / DNS_RATE;
    let mut inputs = Vec::with_capacity(size.dns_requests);
    for i in 0..size.dns_requests {
        let url = &dep.urls[zipf.sample(&mut rng)].0;
        let at = SimTime::from_nanos(interval * i as u64);
        let event = dns::url_event(client, url.clone(), i as i64);
        rt.inject_at(event.clone(), at)?;
        inputs.push((event, at));
    }
    let inject_s = lap.split();
    Ok(Ready {
        rt,
        inputs,
        times: SetupTimes {
            topo_s,
            build_s,
            install_s,
            inject_s,
        },
        urls: dep.urls,
    })
}

impl<R: ProvRecorder> Ready<R> {
    /// Executions whose output arrived and equals the output their input
    /// must produce, each counted once.
    pub fn delivered(&self) -> usize {
        let ips: HashMap<&str, &str> = self
            .urls
            .iter()
            .map(|(url, _, ip)| (url.as_str(), ip.as_str()))
            .collect();
        let mut done = vec![false; self.inputs.len()];
        for out in self.rt.outputs() {
            let exec = out.exec_id as usize;
            let Some((input, _)) = self.inputs.get(exec) else {
                continue;
            };
            if expected_output(input, &ips).as_ref() == Some(&out.tuple) {
                done[exec] = true;
            }
        }
        done.iter().filter(|&&d| d).count()
    }
}

/// The output an input event must produce: `recv` at the destination
/// with the packet's payload, or the `reply` carrying the URL's address.
fn expected_output(input: &Tuple, ips: &HashMap<&str, &str>) -> Option<Tuple> {
    let a = input.args();
    match input.rel() {
        "packet" => {
            let (src, dst) = (a.get(1)?.as_addr()?, a.get(2)?.as_addr()?);
            Some(forwarding::recv(dst, src, dst, a.get(3)?.as_str()?))
        }
        "url" => {
            let ip = ips.get(a.get(1)?.as_str()?)?;
            Some(Tuple::new(
                "reply",
                vec![
                    a[0].clone(),
                    a[1].clone(),
                    Value::str(*ip),
                    a.get(2)?.clone(),
                ],
            ))
        }
        _ => None,
    }
}

/// A provenance scheme under test: how to build its recorder, and how to
/// run the message-level query against its tables.
pub trait Scheme: ProvRecorder + Sized {
    /// The recorder for `delp` deployed on `nodes` nodes.
    fn build(delp: &Delp, nodes: usize) -> Self;

    /// Query the provenance of `out` through `dpc_core::distquery`,
    /// resolving tuple contents through `rt`.
    fn query<R: ProvRecorder>(
        &self,
        rt: &Runtime<R>,
        out: &OutputRecord,
    ) -> dpc_common::Result<SimulatedQuery>;
}

impl Scheme for AdvancedRecorder {
    fn build(delp: &Delp, nodes: usize) -> Self {
        AdvancedRecorder::new(nodes, equivalence_keys(delp))
    }

    fn query<R: ProvRecorder>(
        &self,
        rt: &Runtime<R>,
        out: &OutputRecord,
    ) -> dpc_common::Result<SimulatedQuery> {
        simulate_query_advanced(
            rt.net(),
            self,
            rt,
            rt.delp(),
            rt.fns(),
            QueryCostModel::default(),
            &out.tuple,
            &out.evid,
            None,
        )
    }
}

impl Scheme for ExspanRecorder {
    fn build(_delp: &Delp, nodes: usize) -> Self {
        ExspanRecorder::new(nodes)
    }

    fn query<R: ProvRecorder>(
        &self,
        rt: &Runtime<R>,
        out: &OutputRecord,
    ) -> dpc_common::Result<SimulatedQuery> {
        simulate_query_exspan(
            rt.net(),
            self,
            rt,
            QueryCostModel::default(),
            &out.tuple,
            None,
        )
    }
}

/// The `k` outputs a run's queries ask about, drawn from `seed`.
pub fn sample_outputs<R: ProvRecorder>(rt: &Runtime<R>, seed: u64, k: usize) -> Vec<OutputRecord> {
    let mut outs = rt.outputs().to_vec();
    SeededRng::seed_from_u64(seed ^ QUERY_SALT).shuffle(&mut outs);
    outs.truncate(k);
    outs
}

/// The query's result when it answers the query: `Ok`, with the queried
/// output at the root of the tree.
pub fn answered<'a>(
    out: &OutputRecord,
    res: &'a dpc_common::Result<SimulatedQuery>,
) -> Option<&'a SimulatedQuery> {
    match res {
        Ok(q) if q.tree.output() == &out.tuple => Some(q),
        _ => None,
    }
}
