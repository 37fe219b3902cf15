#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Discrete-event network simulator.
//!
//! This crate stands in for the paper's use of the ns-3 simulator: it
//! provides simulated time, point-to-point links with latency and
//! bandwidth, a message scheduler with per-link transmission queuing, and
//! per-link traffic accounting. The topology generators reproduce the
//! paper's evaluation setups: a GT-ITM-style transit-stub graph (packet
//! forwarding, Section 6.1) and a hierarchical nameserver tree (DNS,
//! Section 6.2).
//!
//! A [`Network`] is cheap to clone: clones share the topology and its
//! route table, one latency shortest-path tree per source, each built by
//! one Dijkstra on first use. Routed sends read those trees, so a query
//! that wraps the network in a fresh [`Sim`] routes over the trees every
//! earlier run already built. Mutation is copy-on-write: it copies the
//! topology if a clone shares it and starts the mutated network on an
//! empty route table. Hop-count trees, from which the paper's `route`
//! tables are installed, come from one breadth-first search each and
//! belong to their caller; they tie-break exactly as a unit-cost Dijkstra
//! would (see [`Network::hop_tree`]).
//!
//! The simulator is generic over the message type `M`, so the declarative
//! networking engine layers its tuples (and the provenance query engine its
//! fetch requests) on top without this crate knowing about either.

pub mod link;
pub mod network;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topo;

pub use link::Link;
pub use network::{Network, PathTree};
pub use sim::Sim;
pub use stats::TrafficStats;
pub use time::SimTime;
