//! The repository benchmark.
//!
//! Three provenance workloads run through the public API of the
//! workspace crates. An untraced run measures what a user of the system
//! sees: set-up time, execution throughput, query latency, storage, wire
//! bytes and memory. A separate traced run attributes the cost to the
//! layers, by timing the recorder hooks in place and by replaying the
//! run's logged work through one layer at a time. `README.md` in this
//! directory defines every metric and maps each layer to the end-to-end
//! metric it should move.

pub mod measure;
pub mod refclock;
pub mod replay;
pub mod stats;
pub mod timed;
pub mod workload;

pub use measure::{traced, untraced, Fixed, Metric, Tally, Traced, Untraced};
pub use workload::{Size, Workload, WORKLOADS};

/// A failed check or run aborts the benchmark, which then prints no
/// summary.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;
