#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # Distributed Provenance Compression
//!
//! A from-scratch Rust reproduction of *Distributed Provenance
//! Compression* (SIGMOD 2017): an online, equivalence-based compression
//! scheme for distributed network provenance, together with every
//! substrate it depends on — an NDlog/DELP language frontend with static
//! analysis, a declarative networking engine, and a discrete-event network
//! simulator.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`common`] | `dpc-common` | values, tuples, SHA-1 digests, storage sizing |
//! | [`ndlog`] | `dpc-ndlog` | NDlog parser, DELP validation, dependency graph, `GetEquiKeys` |
//! | [`netsim`] | `dpc-netsim` | simulated clock, links, topologies, traffic stats |
//! | [`engine`] | `dpc-engine` | per-node DBs, rule evaluation, pipelined semi-naïve runtime |
//! | [`core`] | `dpc-core` | ExSPAN/Basic/Advanced recorders, inter-class compression, distributed query |
//! | [`apps`] | `dpc-apps` | packet forwarding, DNS, DHCP, ARP deployments |
//! | [`workload`] | `dpc-workload` | pair/stream/Zipf generators, CDFs |
//!
//! ## Quickstart
//!
//! ```
//! use dpc::prelude::*;
//!
//! // Figure 2's deployment: three nodes in a line, routes towards n2.
//! let net = dpc::netsim::topo::line(3, Link::STUB_STUB);
//! let keys = equivalence_keys(&programs::packet_forwarding());
//! let mut rt = forwarding::make_runtime(net, AdvancedRecorder::new(3, keys));
//! forwarding::install_routes_for_pairs(&mut rt, &[(NodeId(0), NodeId(2))]).unwrap();
//!
//! // Two packets of the same equivalence class (Figure 6).
//! rt.inject(forwarding::packet(NodeId(0), NodeId(0), NodeId(2), "data")).unwrap();
//! rt.inject(forwarding::packet(NodeId(0), NodeId(0), NodeId(2), "url")).unwrap();
//! rt.run().unwrap();
//!
//! // Query the second packet's provenance: the tree is reconstructed from
//! // the shared compressed representation.
//! let out = rt.outputs()[1].clone();
//! let ctx = QueryCtx::from_runtime(&rt);
//! let res = query_advanced(&ctx, rt.recorder(), &out.tuple, &out.evid).unwrap();
//! assert_eq!(res.tree.output(), &out.tuple);
//! ```

pub use dpc_apps as apps;
pub use dpc_common as common;
pub use dpc_core as core;
pub use dpc_engine as engine;
pub use dpc_ndlog as ndlog;
pub use dpc_netsim as netsim;
pub use dpc_telemetry as telemetry;
pub use dpc_workload as workload;

/// The names most programs need.
pub mod prelude {
    pub use dpc_apps::{arp, dhcp, dns, firewall, forwarding};
    pub use dpc_common::{EvId, NodeId, Rid, StorageSize, Tuple, Value, Vid};
    pub use dpc_core::{
        query_advanced, query_basic, query_exspan, AdvancedRecorder, BasicRecorder, ExspanRecorder,
        GroundTruthRecorder, ProvTree, QueryCtx, Scheme,
    };
    pub use dpc_engine::{NoopRecorder, ProvRecorder, Runtime, TeeRecorder};
    pub use dpc_ndlog::{equivalence_keys, parse_program, programs, Delp};
    pub use dpc_netsim::{Link, Network, SimTime};
    pub use dpc_telemetry::{Telemetry, TelemetryHandle};
}
