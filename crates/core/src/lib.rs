#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Distributed provenance compression — the paper's core contribution.
//!
//! Three provenance maintenance schemes plug into the `dpc-engine` runtime
//! through its `ProvRecorder` hooks:
//!
//! * [`ExspanRecorder`] — the uncompressed ExSPAN baseline (Section 2.2):
//!   a `prov` row for every tuple and a `ruleExec` row for every rule
//!   firing, as in Table 1.
//! * [`BasicRecorder`] — the basic storage optimization (Section 4):
//!   intermediate event tuples are dropped from the provenance tables and
//!   the `ruleExec` rows are chained with `NLoc`/`NRID` columns (Table 2);
//!   queries re-derive the intermediate tuples bottom-up.
//! * [`AdvancedRecorder`] — equivalence-based compression (Section 5):
//!   input events are grouped into equivalence classes by their
//!   equivalence-key valuation; only the first execution of a class
//!   materializes the shared tree, subsequent executions store a single
//!   small `prov` row associating their output tuple (and `evid`) with the
//!   shared tree (Table 3). Optionally, rule-execution *nodes* are shared
//!   across classes via the `ruleExecNode`/`ruleExecLink` split of
//!   Section 5.4, kept in a [`SharedNodeStore`] that several programs'
//!   recorders may share ([`AdvancedRecorder::sharing`], the paper's
//!   Section 8 future work).
//!
//! [`GroundTruthRecorder`] captures full provenance trees directly from the
//! execution — the oracle against which the correctness theorems
//! (Theorem 3, Theorem 5) are tested.
//!
//! The [`query`] module runs the distributed recursive query of Section
//! 5.6 (and ExSPAN's querier-driven variant) as messages on the simulated
//! network — the latencies of Figure 12 — and [`reconstruct`] rebuilds
//! full provenance trees (`TRANSFORM_TO_D`, Appendix E) by re-executing
//! rules bottom-up.

pub mod advanced;
pub mod basic;
pub mod dump;
pub mod exspan;
pub mod query;
pub mod reconstruct;
pub mod reference;
pub mod replay;
pub mod scheme;
pub mod selfhost;
pub mod storage;
pub mod tree;

pub use advanced::AdvancedRecorder;
pub use basic::BasicRecorder;
pub use exspan::ExspanRecorder;
pub use query::{
    query_advanced, query_advanced_all, query_basic, query_exspan, simulate_query_advanced,
    simulate_query_exspan, QueryCostModel, QueryCtx, QueryResult, QueryTrace, SimulatedQuery,
    TupleResolver,
};
pub use reference::GroundTruthRecorder;
pub use replay::{ReplayLog, ReplayOp, ReplayableRuntime};
pub use scheme::Scheme;
pub use selfhost::{
    extend_input_event, extend_input_event_advanced, register_advanced_fns, register_provenance_fns,
};
pub use storage::{ProvRow, ProvRowAdv, RuleExecRow, RuleExecView, SharedNodeStore};
pub use tree::ProvTree;
