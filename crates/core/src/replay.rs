//! Reactive provenance maintenance by deterministic replay (Section 3.2).
//!
//! The paper maintains *concrete* provenance only for the relations of
//! interest; for everything else it adopts DTaP's reactive strategy: store
//! only the non-deterministic inputs (base-table operations and input
//! events, with their times) and re-execute the system when the
//! provenance of a "tuple of less interest" is queried. Because the
//! engine and simulator are deterministic, a replay reproduces the
//! original execution exactly.
//!
//! [`ReplayLog`] is that input store; [`ReplayableRuntime`] wraps an
//! ordinary runtime and logs as it forwards. Replaying yields a runtime
//! with a [`GroundTruthRecorder`], from which the provenance tree of *any*
//! derived tuple — intermediate events included — can be read.

use dpc_common::{Result, StorageSize, Tuple};
use dpc_engine::{ProvRecorder, Runtime};
use dpc_ndlog::Delp;
use dpc_netsim::{Network, SimTime};

use crate::reference::GroundTruthRecorder;

/// One logged non-deterministic input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOp {
    /// Setup-time base-tuple installation.
    Install(Tuple),
    /// An input event injected at a simulated time.
    Inject {
        /// The event tuple.
        tuple: Tuple,
        /// Injection time.
        at: SimTime,
    },
    /// A runtime insertion into a slow-changing table (broadcasts `sig`).
    UpdateSlow {
        /// The inserted tuple.
        tuple: Tuple,
        /// Application time.
        at: SimTime,
    },
    /// A runtime deletion from a slow-changing table.
    DeleteSlow {
        /// The deleted tuple.
        tuple: Tuple,
        /// Application time.
        at: SimTime,
    },
}

/// The recorded non-deterministic inputs of one run.
#[derive(Debug, Clone, Default)]
pub struct ReplayLog {
    ops: Vec<ReplayOp>,
}

impl ReplayLog {
    /// An empty log.
    pub fn new() -> ReplayLog {
        ReplayLog::default()
    }

    /// Number of logged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The logged operations, in record order.
    pub fn ops(&self) -> &[ReplayOp] {
        &self.ops
    }

    /// Serialized size of the log — the storage cost of reactive
    /// maintenance (inputs only, no provenance tables).
    pub fn storage_size(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                ReplayOp::Install(t) => 1 + t.storage_size(),
                ReplayOp::Inject { tuple, .. }
                | ReplayOp::UpdateSlow { tuple, .. }
                | ReplayOp::DeleteSlow { tuple, .. } => 1 + tuple.storage_size() + 8,
            })
            .sum()
    }

    /// Re-execute the logged run on a fresh runtime over `net`, capturing
    /// full provenance trees. `configure` runs before any operation (use
    /// it to register user-defined functions through
    /// [`Runtime::fns_mut`]). A program [`Runtime::new`] rejects is an
    /// `Err`.
    pub fn replay(
        &self,
        delp: Delp,
        net: Network,
        configure: impl FnOnce(&mut Runtime<GroundTruthRecorder>),
    ) -> Result<Runtime<GroundTruthRecorder>> {
        let mut rt = Runtime::new(delp, net, GroundTruthRecorder::new())?;
        configure(&mut rt);
        for op in &self.ops {
            match op {
                ReplayOp::Install(t) => rt.install(t.clone())?,
                ReplayOp::Inject { tuple, at } => {
                    rt.inject_at(tuple.clone(), *at)?;
                }
                ReplayOp::UpdateSlow { tuple, at } => rt.update_slow_at(tuple.clone(), *at)?,
                ReplayOp::DeleteSlow { tuple, at } => rt.delete_slow_at(tuple.clone(), *at)?,
            }
        }
        rt.run()?;
        Ok(rt)
    }
}

/// A runtime wrapper that records every non-deterministic input into a
/// [`ReplayLog`] while forwarding to the inner runtime.
pub struct ReplayableRuntime<R> {
    rt: Runtime<R>,
    log: ReplayLog,
}

impl<R: ProvRecorder> ReplayableRuntime<R> {
    /// Wrap a runtime.
    pub fn new(rt: Runtime<R>) -> ReplayableRuntime<R> {
        ReplayableRuntime {
            rt,
            log: ReplayLog::new(),
        }
    }

    /// The inner runtime.
    pub fn inner(&self) -> &Runtime<R> {
        &self.rt
    }

    /// Mutable access to the inner runtime (operations performed directly
    /// on it are *not* logged).
    pub fn inner_mut(&mut self) -> &mut Runtime<R> {
        &mut self.rt
    }

    /// The log recorded so far.
    pub fn log(&self) -> &ReplayLog {
        &self.log
    }

    /// Unwrap into the runtime and the log.
    pub fn into_parts(self) -> (Runtime<R>, ReplayLog) {
        (self.rt, self.log)
    }

    /// Logged [`Runtime::install`].
    pub fn install(&mut self, tuple: Tuple) -> Result<()> {
        self.rt.install(tuple.clone())?;
        self.log.ops.push(ReplayOp::Install(tuple));
        Ok(())
    }

    /// Logged [`Runtime::inject_at`].
    pub fn inject_at(&mut self, tuple: Tuple, at: SimTime) -> Result<u64> {
        let id = self.rt.inject_at(tuple.clone(), at)?;
        self.log.ops.push(ReplayOp::Inject { tuple, at });
        Ok(id)
    }

    /// Logged [`Runtime::update_slow_at`].
    pub fn update_slow_at(&mut self, tuple: Tuple, at: SimTime) -> Result<()> {
        self.rt.update_slow_at(tuple.clone(), at)?;
        self.log.ops.push(ReplayOp::UpdateSlow { tuple, at });
        Ok(())
    }

    /// Logged [`Runtime::delete_slow_at`].
    pub fn delete_slow_at(&mut self, tuple: Tuple, at: SimTime) -> Result<()> {
        self.rt.delete_slow_at(tuple.clone(), at)?;
        self.log.ops.push(ReplayOp::DeleteSlow { tuple, at });
        Ok(())
    }

    /// Forwarded [`Runtime::run`].
    pub fn run(&mut self) -> Result<()> {
        self.rt.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exspan::ExspanRecorder;
    use dpc_apps::forwarding;
    use dpc_common::NodeId;
    use dpc_ndlog::programs;
    use dpc_netsim::{topo, Link};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn record_run() -> (Runtime<ExspanRecorder>, ReplayLog, Network) {
        let net = topo::line(4, Link::STUB_STUB);
        let rt = forwarding::make_runtime(net.clone(), ExspanRecorder::new(4));
        let mut rec = ReplayableRuntime::new(rt);
        for i in 0..3u32 {
            rec.install(forwarding::route(n(i), n(3), n(i + 1)))
                .unwrap();
        }
        for k in 0..5u64 {
            rec.inject_at(
                forwarding::packet(n(0), n(0), n(3), format!("p{k}")),
                SimTime::from_millis(k * 10),
            )
            .unwrap();
        }
        rec.run().unwrap();
        let (rt, log) = rec.into_parts();
        (rt, log, net)
    }

    #[test]
    fn replay_reproduces_outputs_exactly() {
        let (live, log, net) = record_run();
        let replayed = log
            .replay(programs::packet_forwarding(), net, |_| {})
            .unwrap();
        assert_eq!(live.outputs().len(), replayed.outputs().len());
        for (a, b) in live.outputs().iter().zip(replayed.outputs()) {
            assert_eq!(a.tuple, b.tuple);
            assert_eq!(a.evid, b.evid);
            // Exact times differ slightly: the replay ships ground-truth
            // metadata (1 byte) where the live run shipped ExSPAN's 25,
            // changing transmission delays — the logical execution (order,
            // tuples, derivations) is what replay reproduces.
        }
    }

    #[test]
    fn replay_yields_provenance_of_less_interesting_tuples() {
        let (_, log, net) = record_run();
        let replayed = log
            .replay(programs::packet_forwarding(), net, |_| {})
            .unwrap();
        // The intermediate packet at n2 is not a relation of interest, so
        // no scheme stored its tree — but replay recovers it.
        let mid = forwarding::packet(n(2), n(0), n(3), "p0");
        let tree = replayed
            .recorder()
            .tree_for_tuple(&mid)
            .expect("replay captures intermediate derivations");
        assert_eq!(tree.output(), &mid);
        assert_eq!(tree.rules(), vec!["r1", "r1"]);
        assert_eq!(tree.event(), &forwarding::packet(n(0), n(0), n(3), "p0"));
    }

    #[test]
    fn log_is_much_smaller_than_exspan_tables() {
        let (live, log, _) = record_run();
        let exspan: usize = live
            .net()
            .nodes()
            .map(|m| live.recorder().storage_at(m))
            .sum();
        assert!(
            log.storage_size() * 2 < exspan,
            "log {} should be well under ExSPAN {exspan}",
            log.storage_size()
        );
    }

    #[test]
    fn replay_handles_slow_updates() {
        // Record a run that rewires mid-stream; the replay must follow the
        // same paths.
        let mut net = topo::line(3, Link::STUB_STUB);
        let n3 = net.add_node();
        net.add_link(n(0), n3, Link::STUB_STUB).unwrap();
        net.add_link(n3, n(2), Link::STUB_STUB).unwrap();
        let rt = forwarding::make_runtime(net.clone(), ExspanRecorder::new(4));
        let mut rec = ReplayableRuntime::new(rt);
        rec.install(forwarding::route(n(0), n(2), n(1))).unwrap();
        rec.install(forwarding::route(n(1), n(2), n(2))).unwrap();
        rec.install(forwarding::route(n3, n(2), n(2))).unwrap();
        rec.inject_at(forwarding::packet(n(0), n(0), n(2), "a"), SimTime::ZERO)
            .unwrap();
        rec.delete_slow_at(forwarding::route(n(0), n(2), n(1)), SimTime::from_secs(1))
            .unwrap();
        rec.update_slow_at(forwarding::route(n(0), n(2), n3), SimTime::from_secs(1))
            .unwrap();
        rec.inject_at(
            forwarding::packet(n(0), n(0), n(2), "b"),
            SimTime::from_secs(2),
        )
        .unwrap();
        rec.run().unwrap();
        let (_, log) = rec.into_parts();
        assert_eq!(log.len(), 7);

        let replayed = log
            .replay(programs::packet_forwarding(), net, |_| {})
            .unwrap();
        assert_eq!(replayed.outputs().len(), 2);
        let trees = replayed.recorder().trees();
        assert!(trees[0].2.render().contains("@n1"));
        assert!(trees[1].2.render().contains("@n3"));
    }

    #[test]
    fn empty_log_replays_to_nothing() {
        let log = ReplayLog::new();
        assert!(log.is_empty());
        let replayed = log
            .replay(
                programs::packet_forwarding(),
                topo::line(2, Link::STUB_STUB),
                |_| {},
            )
            .unwrap();
        assert!(replayed.outputs().is_empty());
    }
}
