//! Exact deterministic counters of every paper scheme on two small
//! workloads: a 5-pair forwarding run and a 30-server DNS run.
//!
//! Runs are seeded and ride the simulated clock, so wire bytes, storage,
//! rule firings, outputs, compiled plans and index probes are exact
//! functions of the code. A change to any of them is a behaviour change
//! that must update this table on purpose. Wall-clock cost is measured by
//! the repository benchmark (`dpcbench/`), not here.

use dpc_bench::{run_dns, run_forwarding, DnsConfig, FwdConfig, RunMeasurements, Scheme};
use dpc_netsim::SimTime;

/// The counters one run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    total_traffic: u64,
    total_storage: usize,
    rules_fired: u64,
    outputs: usize,
    plans_compiled: u64,
    index_hits: u64,
    index_misses: u64,
}

impl Counters {
    fn of(m: &RunMeasurements) -> Counters {
        let (index_hits, index_misses) = m.index_hits_misses();
        Counters {
            total_traffic: m.total_traffic,
            total_storage: m.total_storage(),
            rules_fired: m.rules_fired,
            outputs: m.outputs,
            plans_compiled: m.plans_compiled(),
            index_hits,
            index_misses,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Forwarding,
    Dns,
}

const fn row(
    workload: Workload,
    scheme: Scheme,
    total_traffic: u64,
    total_storage: usize,
) -> (Workload, Scheme, Counters) {
    let (rules_fired, outputs, plans_compiled, index_hits) = match workload {
        Workload::Forwarding => (320, 50, 2, 280),
        Workload::Dns => (1_316, 100, 4, 1_477),
    };
    let counters = Counters {
        total_traffic,
        total_storage,
        rules_fired,
        outputs,
        plans_compiled,
        index_hits,
        index_misses: 0,
    };
    (workload, scheme, counters)
}

/// Every run's expected counters. Rule firings, outputs, plans and index
/// probes do not depend on the scheme; every probe hits an index.
const EXPECTED: [(Workload, Scheme, Counters); 6] = [
    row(Workload::Forwarding, Scheme::Exspan, 158_490, 40_682),
    row(Workload::Forwarding, Scheme::Basic, 158_490, 26_580),
    row(Workload::Forwarding, Scheme::Advanced, 169_560, 5_708),
    row(Workload::Dns, Scheme::Exspan, 272_456, 164_824),
    row(Workload::Dns, Scheme::Basic, 272_456, 106_564),
    row(Workload::Dns, Scheme::Advanced, 355_768, 9_736),
];

#[test]
fn paper_schemes_reproduce_exact_counters() {
    let fwd = FwdConfig {
        seed: 42,
        pairs: 5,
        rate_per_pair: 5.0,
        duration: SimTime::from_secs(2),
        snapshot_every: SimTime::from_secs(1),
        ..FwdConfig::default()
    };
    let dns = DnsConfig {
        servers: 30,
        urls: 10,
        rate: 50.0,
        duration: SimTime::from_secs(2),
        ..DnsConfig::default()
    };
    for workload in [Workload::Forwarding, Workload::Dns] {
        let schemes: Vec<Scheme> = EXPECTED
            .iter()
            .filter(|r| r.0 == workload)
            .map(|r| r.1)
            .collect();
        assert_eq!(
            schemes,
            Scheme::PAPER,
            "{workload:?}: one row per paper scheme"
        );
    }
    for (workload, scheme, expected) in &EXPECTED {
        let m = match workload {
            Workload::Forwarding => run_forwarding(*scheme, &fwd).m,
            Workload::Dns => run_dns(*scheme, &dns).m,
        };
        assert_eq!(
            Counters::of(&m),
            *expected,
            "{workload:?} under {}",
            scheme.name()
        );
    }
}
