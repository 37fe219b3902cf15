#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The declarative networking engine.
//!
//! This crate stands in for RapidNet: it executes validated DELPs over the
//! simulated network with *pipelined semi-naïve evaluation* (Section 3.1) —
//! each input event joins the local slow-changing tables, the derived head
//! tuple ships to the node named by its location specifier, and execution
//! continues rule by rule until the output relation is reached.
//!
//! Provenance maintenance plugs in through the [`ProvRecorder`] trait: the
//! runtime invokes the recorder at event input (stage 1 of the online
//! compression scheme), at every rule firing (stage 2) and at output-tuple
//! derivation (stage 3). The three maintenance schemes of the paper
//! (ExSPAN, Basic, Advanced) implement this trait in `dpc-core`.
//!
//! Responsibilities of this crate:
//!
//! * [`db`] — per-node relational databases of base and derived tuples.
//! * [`plan`] — rule evaluation: every rule compiled to a [`RulePlan`]
//!   whose joins probe secondary indexes on the slow tables, and which
//!   replays a recorded firing for query-time reconstruction.
//! * [`eval`] — what evaluation shares: user-defined functions, firings,
//!   arithmetic and comparisons.
//! * [`recorder`] — the [`ProvRecorder`] trait, [`ProvMeta`] (the metadata
//!   tagged along with tuples on the wire, carrying `existFlag`, `evid`
//!   and the provenance chain reference), and recorder combinators.
//! * [`runtime`] — the event loop: injection, rule firing, multi-hop
//!   delivery, slow-table updates with `sig` broadcast (Section 5.5).
//!   [`Runtime::new`] is the one constructor: it compiles every rule and
//!   audits every plan, and returns an `Err` for a program it cannot run.

pub mod db;
pub mod eval;
pub mod plan;
pub mod recorder;
pub mod runtime;

pub use db::{Database, Table};
pub use eval::{Firing, FnRegistry};
pub use plan::{EvalStats, PlanSet, RulePlan};
pub use recorder::{NoopRecorder, ProvMeta, ProvRecorder, Stage, TeeRecorder};
pub use runtime::{OutputRecord, RunMetrics, Runtime, RuntimeConfig};
