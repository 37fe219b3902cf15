//! The Section 5.6 query executed as *actual messages* on the simulated
//! network.
//!
//! [`crate::query`] computes query latency analytically (sums of path
//! latencies, processing and transfer times). This module is the
//! mechanical counterpart: the recursive chain query of Section 5.6 runs
//! as a discrete-event simulation — a query message travels the
//! `(NLoc, NRID)` chain hop by hop, accumulating the fetched rows and
//! leaf tuples, and the collected entries return to the querier, which
//! re-derives the intermediate tuples. Link queuing and transmission
//! delays come from the simulator itself.
//!
//! The test suite checks that the simulated latency and the analytic
//! model agree to within a small factor — the cost model behind Figure 12
//! is validated by construction, not assumed.

use dpc_common::{Error, EvId, NodeId, Result, Rid, Tuple};
use dpc_engine::FnRegistry;
use dpc_ndlog::Delp;
use dpc_netsim::{Network, Sim, SimTime};
use dpc_telemetry::{AttrValue, SpanContext, TelemetryHandle};

use crate::query::{AdvancedStore, QueryCostModel, TupleResolver};
use crate::reconstruct::{reconstruct, ChainLevel};
use crate::tree::ProvTree;

/// Outcome of a simulated distributed query.
#[derive(Debug, Clone)]
pub struct SimulatedQuery {
    /// The reconstructed full provenance tree.
    pub tree: ProvTree,
    /// End-to-end latency measured by the simulator (network phase) plus
    /// the local reconstruction cost.
    pub latency: SimTime,
    /// Messages exchanged on the network.
    pub messages: u64,
    /// Bytes carried across all hops.
    pub bytes: u64,
}

/// Tracing options for a simulated query: where the spans go, and where
/// on the shared trace timeline this query starts.
///
/// Each query runs its own private [`Sim`] whose clock starts at zero;
/// `start` offsets the whole query so many queries laid on one exported
/// timeline don't overlay. Pass the previous query's end as the next
/// `start` (or leave [`SimTime::ZERO`] for a single query).
#[derive(Clone)]
pub struct QueryTrace {
    /// Sink receiving the spans.
    pub telemetry: TelemetryHandle,
    /// Trace-timeline instant at which this query begins.
    pub start: SimTime,
}

/// Per-query tracer: the root "query" span plus helpers for the closed
/// child spans every protocol stage emits. A `None` trace makes every
/// call free.
struct QTracer {
    tel: Option<TelemetryHandle>,
    root: SpanContext,
    /// The simulated instant the query started at (the trace offset).
    base: SimTime,
}

impl QTracer {
    /// Offset `sim` to the trace start, attach the sink and open the root
    /// span annotated with `scheme`.
    fn start<M>(trace: Option<&QueryTrace>, sim: &mut Sim<M>, querier: NodeId) -> QTracer {
        let Some(qt) = trace else {
            return QTracer {
                tel: None,
                root: SpanContext::NONE,
                base: SimTime::ZERO,
            };
        };
        if qt.start > SimTime::ZERO {
            // The heap is empty: this just advances the clock.
            let _ = sim.pop_until(qt.start);
        }
        sim.set_telemetry(qt.telemetry.clone());
        let root = qt
            .telemetry
            .span_root("query", Some(querier.0), sim.now().as_nanos());
        QTracer {
            tel: Some(qt.telemetry.clone()),
            root,
            base: qt.start,
        }
    }

    fn attr(&self, key: &'static str, value: impl FnOnce() -> AttrValue) {
        if let Some(t) = &self.tel {
            t.span_attr(self.root, key, value);
        }
    }

    /// Emit a closed child span of the root covering `[start, end]`.
    fn stage(&self, name: &'static str, node: NodeId, start: SimTime, end: SimTime) -> SpanContext {
        let Some(t) = &self.tel else {
            return SpanContext::NONE;
        };
        let s = t.span_child(name, Some(node.0), self.root, start.as_nanos());
        t.span_end(s, end.as_nanos());
        s
    }

    /// Like [`QTracer::stage`] with rows/bytes annotations.
    fn fetch(&self, node: NodeId, start: SimTime, end: SimTime, rows: usize, bytes: usize) {
        let Some(t) = &self.tel else { return };
        let s = self.stage("query.fetch", node, start, end);
        t.span_attr(s, "rows", || AttrValue::UInt(rows as u64));
        t.span_attr(s, "bytes", || AttrValue::UInt(bytes as u64));
    }

    /// Close the root at `end` with the run totals.
    fn finish(&self, end: SimTime, messages: u64, bytes: u64) {
        if let Some(t) = &self.tel {
            t.span_attr(self.root, "messages", || AttrValue::UInt(messages));
            t.span_attr(self.root, "bytes", || AttrValue::UInt(bytes));
            t.span_end(self.root, end.as_nanos());
        }
    }
}

/// The traveling query's accumulated state.
#[derive(Debug, Clone)]
struct State {
    querier: NodeId,
    evid: EvId,
    levels: Vec<ChainLevel>,
    event: Option<Tuple>,
    /// Serialized size of the collected entries so far.
    payload: usize,
}

/// Messages of the query protocol.
#[derive(Debug, Clone)]
enum QMsg {
    /// Process the chain node `rid` here, then continue.
    Step { rid: Rid, state: State },
    /// All entries collected; deliver to the querier.
    Done { state: State },
    /// Local processing finished: forward `inner` to `to` with `bytes` on
    /// the wire (or locally when already there).
    Forward {
        to: NodeId,
        bytes: usize,
        inner: Box<QMsg>,
    },
}

/// Base wire size of a query request (ids and bookkeeping).
const REQUEST_BYTES: usize = 48;

/// Execute the Section 5.6 chain query for `output`/`evid` as simulated
/// messages over `net`, against an Advanced-layout store.
#[allow(clippy::too_many_arguments)]
pub fn simulate_query_advanced<S: AdvancedStore>(
    net: &Network,
    rec: &S,
    resolver: &dyn TupleResolver,
    delp: &Delp,
    fns: &FnRegistry,
    cost: QueryCostModel,
    output: &Tuple,
    evid: &EvId,
    trace: Option<&QueryTrace>,
) -> Result<SimulatedQuery> {
    let querier = output.loc()?;
    let provs = rec.lookup_prov(querier, &output.vid(), evid);
    let prov = provs.first().ok_or_else(|| {
        Error::ProvenanceLookup(format!("no prov row for {output} / {evid} at {querier}"))
    })?;

    let mut sim: Sim<QMsg> = Sim::new(net.clone());
    let tr = QTracer::start(trace, &mut sim, querier);
    tr.attr("scheme", || AttrValue::Str("advanced".into()));
    // The prov lookup happens at the querier, then the query departs.
    // Advanced resolves the prov row through the equivalence-tagged
    // table, so the initial lookup is equivalence work.
    tr.stage(
        "query.eq_lookup",
        querier,
        sim.now(),
        sim.now() + cost.per_row_proc,
    );
    let state = State {
        querier,
        evid: *evid,
        levels: Vec::new(),
        event: None,
        payload: 0,
    };
    sim.schedule_local(
        querier,
        cost.per_row_proc,
        QMsg::Forward {
            to: prov.rloc,
            bytes: REQUEST_BYTES,
            inner: Box::new(QMsg::Step {
                rid: prov.rid,
                state,
            }),
        },
    );

    let mut finished: Option<State> = None;
    while let Some(d) = sim.pop() {
        let node = d.dst;
        match d.msg {
            QMsg::Forward { to, bytes, inner } => {
                if to == node {
                    sim.schedule_local(node, SimTime::ZERO, *inner);
                } else {
                    sim.send_routed_traced(node, to, bytes, *inner, tr.root)?;
                }
            }
            QMsg::Step { rid, mut state } => {
                let step_at = sim.now();
                let view = rec.lookup_rule_exec(node, &rid).ok_or_else(|| {
                    Error::ProvenanceLookup(format!("no ruleExec node {rid} at {node}"))
                })?;
                let mut slow = Vec::with_capacity(view.vids.len());
                let mut fetched = 4 + 20 + (4 + view.rule.len()) + 4 + view.vids.len() * 20 + 25;
                for v in &view.vids {
                    let t = resolver.tuple_by_vid(node, v).ok_or_else(|| {
                        Error::ProvenanceLookup(format!("slow tuple {v} missing at {node}"))
                    })?;
                    fetched += dpc_common::StorageSize::storage_size(t);
                    slow.push(t.clone());
                }
                let rows = 1 + slow.len();
                state.levels.push(ChainLevel {
                    rule: view.rule.clone(),
                    slow,
                });
                state.payload += fetched;
                let proc = SimTime::from_nanos(cost.per_row_proc.as_nanos() * rows as u64);
                tr.fetch(node, step_at, step_at + proc, rows, fetched);
                match view.next {
                    Some((nloc, nrid)) => {
                        let bytes = REQUEST_BYTES + state.payload;
                        sim.schedule_local(
                            node,
                            proc,
                            QMsg::Forward {
                                to: nloc,
                                bytes,
                                inner: Box::new(QMsg::Step { rid: nrid, state }),
                            },
                        );
                    }
                    None => {
                        // Chain tail: fetch the materialized input event.
                        let ev = resolver.event_by_evid(node, &state.evid).ok_or_else(|| {
                            Error::ProvenanceLookup(format!(
                                "event {} not materialized at {node}",
                                state.evid
                            ))
                        })?;
                        state.payload += dpc_common::StorageSize::storage_size(ev);
                        state.event = Some(ev.clone());
                        let (querier, bytes) = (state.querier, state.payload);
                        sim.schedule_local(
                            node,
                            proc,
                            QMsg::Forward {
                                to: querier,
                                bytes,
                                inner: Box::new(QMsg::Done { state }),
                            },
                        );
                    }
                }
            }
            QMsg::Done { state } => {
                debug_assert_eq!(node, state.querier);
                finished = Some(state);
                break;
            }
        }
    }

    let state = finished
        .ok_or_else(|| Error::ProvenanceLookup("query never returned to the querier".into()))?;
    let network_latency = sim.now();
    let event = state.event.expect("set on the tail branch");
    let reexec = SimTime::from_nanos(cost.reexec_per_rule.as_nanos() * state.levels.len() as u64);
    tr.stage(
        "query.reexec",
        querier,
        network_latency,
        network_latency + reexec,
    );
    tr.attr("hops", || AttrValue::UInt(state.levels.len() as u64));
    tr.finish(
        network_latency + reexec,
        sim.stats().messages(),
        sim.stats().total_bytes(),
    );
    let tree = reconstruct(delp, fns, &state.levels, &event)?;
    if tree.output() != output {
        return Err(Error::ProvenanceLookup(format!(
            "reconstruction produced {} instead of {output}",
            tree.output()
        )));
    }
    Ok(SimulatedQuery {
        tree,
        latency: (network_latency - tr.base) + reexec,
        messages: sim.stats().messages(),
        bytes: sim.stats().total_bytes(),
    })
}

/// Execute the Basic chain query (Section 4) for `output` as simulated
/// messages. Identical traveling-query shape to
/// [`simulate_query_advanced`], except the input event is referenced by
/// its `vid` in the chain tail's `VIDS` column (Table 2) instead of by
/// `evid`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_query_basic(
    net: &Network,
    rec: &crate::basic::BasicRecorder,
    resolver: &dyn TupleResolver,
    delp: &Delp,
    fns: &FnRegistry,
    cost: QueryCostModel,
    output: &Tuple,
    trace: Option<&QueryTrace>,
) -> Result<SimulatedQuery> {
    let querier = output.loc()?;
    let prov = rec
        .prov_row(querier, &output.vid())
        .ok_or_else(|| Error::ProvenanceLookup(format!("no prov row for {output} at {querier}")))?
        .clone();
    let (rloc, rid) = (
        prov.rloc.expect("basic prov rows reference a rule"),
        prov.rid.expect("basic prov rows reference a rule"),
    );

    let mut sim: Sim<QMsg> = Sim::new(net.clone());
    let tr = QTracer::start(trace, &mut sim, querier);
    tr.attr("scheme", || AttrValue::Str("basic".into()));
    tr.stage(
        "query.lookup",
        querier,
        sim.now(),
        sim.now() + cost.per_row_proc,
    );
    let state = State {
        querier,
        evid: EvId::of_bytes(b"basic-unused"),
        levels: Vec::new(),
        event: None,
        payload: 0,
    };
    sim.schedule_local(
        querier,
        cost.per_row_proc,
        QMsg::Forward {
            to: rloc,
            bytes: REQUEST_BYTES,
            inner: Box::new(QMsg::Step { rid, state }),
        },
    );

    let mut finished: Option<State> = None;
    while let Some(d) = sim.pop() {
        let node = d.dst;
        match d.msg {
            QMsg::Forward { to, bytes, inner } => {
                if to == node {
                    sim.schedule_local(node, SimTime::ZERO, *inner);
                } else {
                    sim.send_routed_traced(node, to, bytes, *inner, tr.root)?;
                }
            }
            QMsg::Step { rid, mut state } => {
                let step_at = sim.now();
                let row = rec
                    .rule_exec(node, &rid)
                    .ok_or_else(|| {
                        Error::ProvenanceLookup(format!("no ruleExec row {rid} at {node}"))
                    })?
                    .clone();
                // On the chain tail the first vid is the input event.
                let (event_vid, slow_vids): (Option<dpc_common::Vid>, &[dpc_common::Vid]) =
                    if row.next.is_none() {
                        let (first, rest) = row.vids.split_first().ok_or_else(|| {
                            Error::ProvenanceLookup(format!("chain tail {rid} lacks its event vid"))
                        })?;
                        (Some(*first), rest)
                    } else {
                        (None, &row.vids[..])
                    };
                let mut fetched = row.size_bytes(true);
                let mut slow = Vec::with_capacity(slow_vids.len());
                for v in slow_vids {
                    let t = resolver.tuple_by_vid(node, v).ok_or_else(|| {
                        Error::ProvenanceLookup(format!("slow tuple {v} missing at {node}"))
                    })?;
                    fetched += dpc_common::StorageSize::storage_size(t);
                    slow.push(t.clone());
                }
                let rows = 1 + slow.len();
                state.levels.push(ChainLevel {
                    rule: row.rule.clone(),
                    slow,
                });
                state.payload += fetched;
                let proc = SimTime::from_nanos(cost.per_row_proc.as_nanos() * rows as u64);
                tr.fetch(node, step_at, step_at + proc, rows, fetched);
                match row.next {
                    Some((nloc, nrid)) => {
                        let bytes = REQUEST_BYTES + state.payload;
                        sim.schedule_local(
                            node,
                            proc,
                            QMsg::Forward {
                                to: nloc,
                                bytes,
                                inner: Box::new(QMsg::Step { rid: nrid, state }),
                            },
                        );
                    }
                    None => {
                        let ev_vid = event_vid.expect("set on the tail branch");
                        let ev = resolver.tuple_by_vid(node, &ev_vid).ok_or_else(|| {
                            Error::ProvenanceLookup(format!(
                                "event tuple {ev_vid} missing at {node}"
                            ))
                        })?;
                        state.payload += dpc_common::StorageSize::storage_size(ev);
                        state.event = Some(ev.clone());
                        let (querier, bytes) = (state.querier, state.payload);
                        sim.schedule_local(
                            node,
                            proc,
                            QMsg::Forward {
                                to: querier,
                                bytes,
                                inner: Box::new(QMsg::Done { state }),
                            },
                        );
                    }
                }
            }
            QMsg::Done { state } => {
                debug_assert_eq!(node, state.querier);
                finished = Some(state);
                break;
            }
        }
    }

    let state = finished
        .ok_or_else(|| Error::ProvenanceLookup("query never returned to the querier".into()))?;
    let network_latency = sim.now();
    let event = state.event.expect("set on the tail branch");
    let reexec = SimTime::from_nanos(cost.reexec_per_rule.as_nanos() * state.levels.len() as u64);
    tr.stage(
        "query.reexec",
        querier,
        network_latency,
        network_latency + reexec,
    );
    tr.attr("hops", || AttrValue::UInt(state.levels.len() as u64));
    tr.finish(
        network_latency + reexec,
        sim.stats().messages(),
        sim.stats().total_bytes(),
    );
    let tree = reconstruct(delp, fns, &state.levels, &event)?;
    if tree.output() != output {
        return Err(Error::ProvenanceLookup(format!(
            "reconstruction produced {} instead of {output}",
            tree.output()
        )));
    }
    Ok(SimulatedQuery {
        tree,
        latency: (network_latency - tr.base) + reexec,
        messages: sim.stats().messages(),
        bytes: sim.stats().total_bytes(),
    })
}

/// A fetched child: its content, the deriving rule execution (if any),
/// and the serialized size of what was shipped.
type FetchedChild = (Tuple, Option<(NodeId, Rid)>, usize);

/// Messages of the querier-driven ExSPAN protocol.
#[derive(Debug, Clone)]
enum EMsg {
    /// Fetch the ruleExec row `rid` plus all its children's prov rows and
    /// contents; reply to `reply_to`.
    Req { rid: Rid, reply_to: NodeId },
    /// One level's worth of entries, shipped back to the querier.
    Resp {
        rule: String,
        slow: Vec<Tuple>,
        /// The event child: its content, and its deriving rule execution
        /// if it is itself derived.
        event: Tuple,
        event_deriv: Option<(NodeId, Rid)>,
    },
    /// Local processing done; send `inner` to `to`.
    Send {
        to: NodeId,
        bytes: usize,
        inner: Box<EMsg>,
    },
}

/// Execute ExSPAN's querier-driven recursive query for `output` as
/// simulated messages: one request/response round trip per derivation
/// level, with every level's intermediate tuple content shipped back —
/// the mechanical version of the Figure 12 baseline.
pub fn simulate_query_exspan(
    net: &Network,
    rec: &crate::exspan::ExspanRecorder,
    resolver: &dyn TupleResolver,
    cost: QueryCostModel,
    output: &Tuple,
    trace: Option<&QueryTrace>,
) -> Result<SimulatedQuery> {
    let querier = output.loc()?;
    let prov = rec
        .prov_row(querier, &output.vid())
        .ok_or_else(|| Error::ProvenanceLookup(format!("no prov row for {output} at {querier}")))?
        .clone();
    let (Some(rid0), Some(rloc0)) = (prov.rid, prov.rloc) else {
        return Err(Error::ProvenanceLookup(format!(
            "{output} is a base tuple, not a derived output"
        )));
    };

    let mut sim: Sim<EMsg> = Sim::new(net.clone());
    let tr = QTracer::start(trace, &mut sim, querier);
    tr.attr("scheme", || AttrValue::Str("exspan".into()));
    tr.stage(
        "query.lookup",
        querier,
        sim.now(),
        sim.now() + SimTime::from_nanos(cost.per_row_proc.as_nanos() * 2),
    );
    // The local prov+content lookup, then the first request departs.
    sim.schedule_local(
        querier,
        SimTime::from_nanos(cost.per_row_proc.as_nanos() * 2),
        EMsg::Send {
            to: rloc0,
            bytes: REQUEST_BYTES,
            inner: Box::new(EMsg::Req {
                rid: rid0,
                reply_to: querier,
            }),
        },
    );

    // Collected levels, root-first: (rule, derived tuple, slow tuples).
    let mut levels: Vec<(String, Tuple, Vec<Tuple>)> = Vec::new();
    let mut cur_output = output.clone();
    let mut leaf_event: Option<Tuple> = None;

    while let Some(d) = sim.pop() {
        let node = d.dst;
        match d.msg {
            EMsg::Send { to, bytes, inner } => {
                if to == node {
                    sim.schedule_local(node, SimTime::ZERO, *inner);
                } else {
                    sim.send_routed_traced(node, to, bytes, *inner, tr.root)?;
                }
            }
            EMsg::Req { rid, reply_to } => {
                let req_at = sim.now();
                let re = rec
                    .rule_exec(node, &rid)
                    .ok_or_else(|| {
                        Error::ProvenanceLookup(format!("no ruleExec row {rid} at {node}"))
                    })?
                    .clone();
                let mut bytes = re.size_bytes(false);
                let mut rows = 1usize;
                let fetch = |vid: &dpc_common::Vid| -> Result<FetchedChild> {
                    let p = rec.prov_row(node, vid).ok_or_else(|| {
                        Error::ProvenanceLookup(format!("no prov row for child {vid} at {node}"))
                    })?;
                    let t = resolver.tuple_by_vid(node, vid).ok_or_else(|| {
                        Error::ProvenanceLookup(format!("child content {vid} missing at {node}"))
                    })?;
                    let sz = dpc_common::StorageSize::storage_size(p)
                        + dpc_common::StorageSize::storage_size(t);
                    let deriv = match (p.rid, p.rloc) {
                        (Some(r), Some(l)) => Some((l, r)),
                        _ => None,
                    };
                    Ok((t.clone(), deriv, sz))
                };
                let first = re.vids.first().ok_or_else(|| {
                    Error::ProvenanceLookup(format!("ruleExec {rid} has no children"))
                })?;
                let (event, event_deriv, sz) = fetch(first)?;
                bytes += sz;
                rows += 2;
                let mut slow = Vec::with_capacity(re.vids.len() - 1);
                for v in &re.vids[1..] {
                    let (t, deriv, sz) = fetch(v)?;
                    if deriv.is_some() {
                        return Err(Error::ProvenanceLookup(format!(
                            "slow child {v} of {rid} is unexpectedly derived"
                        )));
                    }
                    bytes += sz;
                    rows += 2;
                    slow.push(t);
                }
                let proc = SimTime::from_nanos(cost.per_row_proc.as_nanos() * rows as u64);
                tr.fetch(node, req_at, req_at + proc, rows, bytes);
                sim.schedule_local(
                    node,
                    proc,
                    EMsg::Send {
                        to: reply_to,
                        bytes,
                        inner: Box::new(EMsg::Resp {
                            rule: re.rule.clone(),
                            slow,
                            event,
                            event_deriv,
                        }),
                    },
                );
            }
            EMsg::Resp {
                rule,
                slow,
                event,
                event_deriv,
            } => {
                debug_assert_eq!(node, querier);
                levels.push((rule, cur_output.clone(), slow));
                cur_output = event.clone();
                match event_deriv {
                    Some((next_loc, next_rid)) => {
                        sim.send_routed_traced(
                            querier,
                            next_loc,
                            REQUEST_BYTES,
                            EMsg::Req {
                                rid: next_rid,
                                reply_to: querier,
                            },
                            tr.root,
                        )?;
                    }
                    None => {
                        leaf_event = Some(event);
                        break;
                    }
                }
            }
        }
    }

    let event = leaf_event
        .ok_or_else(|| Error::ProvenanceLookup("query never reached a base event".into()))?;
    tr.attr("hops", || AttrValue::UInt(levels.len() as u64));
    tr.finish(sim.now(), sim.stats().messages(), sim.stats().total_bytes());
    // Fold the levels (root-first) into the tree, leaf up.
    let (rule, out_t, slow) = levels.pop().expect("at least one level");
    let mut tree = ProvTree::Leaf {
        rule,
        output: out_t,
        event,
        slow,
    };
    while let Some((rule, out_t, slow)) = levels.pop() {
        tree = ProvTree::Node {
            rule,
            output: out_t,
            child: Box::new(tree),
            slow,
        };
    }
    if tree.output() != output {
        return Err(Error::ProvenanceLookup(format!(
            "assembled {} instead of {output}",
            tree.output()
        )));
    }
    Ok(SimulatedQuery {
        tree,
        latency: sim.now() - tr.base,
        messages: sim.stats().messages(),
        bytes: sim.stats().total_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advanced::AdvancedRecorder;
    use crate::query::{query_advanced, QueryCtx};
    use crate::reference::GroundTruthRecorder;
    use dpc_apps::forwarding;
    use dpc_engine::{Runtime, TeeRecorder};
    use dpc_ndlog::{equivalence_keys, programs};
    use dpc_netsim::{topo, Link};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn setup(len: usize) -> Runtime<TeeRecorder<AdvancedRecorder, GroundTruthRecorder>> {
        let keys = equivalence_keys(&programs::packet_forwarding());
        let net = topo::line(len, Link::STUB_STUB);
        let rec = TeeRecorder::new(AdvancedRecorder::new(len, keys), GroundTruthRecorder::new());
        let mut rt = forwarding::make_runtime(net, rec);
        let dst = n(len as u32 - 1);
        forwarding::install_routes_for_pairs(&mut rt, &[(n(0), dst)]).unwrap();
        rt.inject(forwarding::packet(n(0), n(0), dst, forwarding::payload(1)))
            .unwrap();
        rt.run().unwrap();
        rt
    }

    #[test]
    fn simulated_query_returns_the_ground_truth_tree() {
        let rt = setup(5);
        let out = rt.outputs()[0].clone();
        let res = simulate_query_advanced(
            rt.net(),
            &rt.recorder().primary,
            &rt,
            rt.delp(),
            rt.fns(),
            QueryCostModel::default(),
            &out.tuple,
            &out.evid,
            None,
        )
        .unwrap();
        let truth = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        assert_eq!(&res.tree, truth);
        assert!(res.messages > 0);
        assert!(res.bytes > 0);
    }

    #[test]
    fn simulated_latency_validates_the_analytic_model() {
        let rt = setup(7);
        let out = rt.outputs()[0].clone();
        let cost = QueryCostModel::default();
        let simulated = simulate_query_advanced(
            rt.net(),
            &rt.recorder().primary,
            &rt,
            rt.delp(),
            rt.fns(),
            cost,
            &out.tuple,
            &out.evid,
            None,
        )
        .unwrap();
        let mut ctx = QueryCtx::from_runtime(&rt);
        ctx.cost = cost;
        let analytic = query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid)
            .unwrap()
            .latency;
        let ratio = simulated.latency.as_secs_f64() / analytic.as_secs_f64();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "simulated {} vs analytic {} (ratio {ratio:.2})",
            simulated.latency,
            analytic
        );
    }

    fn setup_exspan(
        len: usize,
    ) -> Runtime<TeeRecorder<crate::ExspanRecorder, GroundTruthRecorder>> {
        let net = topo::line(len, Link::STUB_STUB);
        let rec = TeeRecorder::new(crate::ExspanRecorder::new(len), GroundTruthRecorder::new());
        let mut rt = forwarding::make_runtime(net, rec);
        let dst = n(len as u32 - 1);
        forwarding::install_routes_for_pairs(&mut rt, &[(n(0), dst)]).unwrap();
        rt.inject(forwarding::packet(n(0), n(0), dst, forwarding::payload(1)))
            .unwrap();
        rt.run().unwrap();
        rt
    }

    #[test]
    fn simulated_exspan_query_returns_ground_truth() {
        let rt = setup_exspan(5);
        let out = rt.outputs()[0].clone();
        let res = simulate_query_exspan(
            rt.net(),
            &rt.recorder().primary,
            &rt,
            QueryCostModel::default(),
            &out.tuple,
            None,
        )
        .unwrap();
        let truth = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        assert_eq!(&res.tree, truth);
    }

    #[test]
    fn simulated_exspan_validates_its_analytic_model() {
        let rt = setup_exspan(7);
        let out = rt.outputs()[0].clone();
        let cost = QueryCostModel::default();
        let simulated = simulate_query_exspan(
            rt.net(),
            &rt.recorder().primary,
            &rt,
            cost,
            &out.tuple,
            None,
        )
        .unwrap();
        let mut ctx = QueryCtx::from_runtime(&rt);
        ctx.cost = cost;
        let analytic = crate::query::query_exspan(&ctx, &rt.recorder().primary, &out.tuple)
            .unwrap()
            .latency;
        let ratio = simulated.latency.as_secs_f64() / analytic.as_secs_f64();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "simulated {} vs analytic {} (ratio {ratio:.2})",
            simulated.latency,
            analytic
        );
    }

    #[test]
    fn figure12_gap_reproduces_mechanically() {
        // The simulated protocols themselves — not the analytic model —
        // show ExSPAN's querier-driven rounds losing to the traveling
        // chain query on a long path.
        let len = 9;
        let rt_e = setup_exspan(len);
        let out_e = rt_e.outputs()[0].clone();
        let exspan = simulate_query_exspan(
            rt_e.net(),
            &rt_e.recorder().primary,
            &rt_e,
            QueryCostModel::default(),
            &out_e.tuple,
            None,
        )
        .unwrap();

        let rt_a = setup(len);
        let out_a = rt_a.outputs()[0].clone();
        let advanced = simulate_query_advanced(
            rt_a.net(),
            &rt_a.recorder().primary,
            &rt_a,
            rt_a.delp(),
            rt_a.fns(),
            QueryCostModel::default(),
            &out_a.tuple,
            &out_a.evid,
            None,
        )
        .unwrap();

        let ratio = exspan.latency.as_secs_f64() / advanced.latency.as_secs_f64();
        assert!(
            ratio > 2.0,
            "exspan {} vs advanced {} (ratio {ratio:.2}) — expected the Figure 12 gap",
            exspan.latency,
            advanced.latency
        );
        // ExSPAN also ships more bytes (the intermediate tuple contents).
        assert!(exspan.bytes > advanced.bytes);
    }

    #[test]
    fn simulated_basic_query_matches_ground_truth_and_advanced_latency() {
        let len = 6;
        let net = topo::line(len, Link::STUB_STUB);
        let rec = TeeRecorder::new(crate::BasicRecorder::new(len), GroundTruthRecorder::new());
        let mut rt = forwarding::make_runtime(net, rec);
        let dst = n(len as u32 - 1);
        forwarding::install_routes_for_pairs(&mut rt, &[(n(0), dst)]).unwrap();
        rt.inject(forwarding::packet(n(0), n(0), dst, forwarding::payload(1)))
            .unwrap();
        rt.run().unwrap();
        let out = rt.outputs()[0].clone();
        let res = simulate_query_basic(
            rt.net(),
            &rt.recorder().primary,
            &rt,
            rt.delp(),
            rt.fns(),
            QueryCostModel::default(),
            &out.tuple,
            None,
        )
        .unwrap();
        let truth = rt
            .recorder()
            .shadow
            .tree_for(&out.tuple, &out.evid)
            .unwrap();
        assert_eq!(&res.tree, truth);

        // Basic and Advanced walk the same chain shape: latencies agree
        // closely on the same workload.
        let rt_a = setup(len);
        let out_a = rt_a.outputs()[0].clone();
        let adv = simulate_query_advanced(
            rt_a.net(),
            &rt_a.recorder().primary,
            &rt_a,
            rt_a.delp(),
            rt_a.fns(),
            QueryCostModel::default(),
            &out_a.tuple,
            &out_a.evid,
            None,
        )
        .unwrap();
        let ratio = res.latency.as_secs_f64() / adv.latency.as_secs_f64();
        assert!((0.8..=1.3).contains(&ratio), "basic/advanced ratio {ratio}");
    }

    #[test]
    fn traced_query_breakdown_covers_root_exactly() {
        let rt = setup(6);
        let out = rt.outputs()[0].clone();
        let tel = dpc_telemetry::Telemetry::handle();
        tel.set_span_sampling(1);
        let qt = QueryTrace {
            telemetry: tel.clone(),
            start: SimTime::ZERO,
        };
        let res = simulate_query_advanced(
            rt.net(),
            &rt.recorder().primary,
            &rt,
            rt.delp(),
            rt.fns(),
            QueryCostModel::default(),
            &out.tuple,
            &out.evid,
            Some(&qt),
        )
        .unwrap();
        let spans = tel.spans();
        assert_eq!(tel.open_span_count(), 0);
        let by_trace = dpc_telemetry::spans_by_trace(&spans);
        assert_eq!(by_trace.len(), 1);
        let tree = by_trace.values().next().unwrap();
        dpc_telemetry::check_well_formed(tree).unwrap();
        let root = tree.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(root.name, "query");
        // The root covers exactly the reported latency.
        assert_eq!(root.duration_ns(), res.latency.as_nanos());
        // Critical path: all four categories are exercised and the
        // components sum to the root duration exactly.
        let bd = dpc_telemetry::critical_path(tree).unwrap();
        assert_eq!(bd.total(), root.duration_ns());
        assert!(bd.network > 0, "{bd:?}");
        assert!(bd.join > 0, "reexec time: {bd:?}");
        assert!(bd.equivalence > 0, "initial eq lookup: {bd:?}");
        assert!(bd.storage > 0, "per-hop fetches: {bd:?}");
    }

    #[test]
    fn traced_queries_offset_on_a_shared_timeline() {
        let rt = setup(4);
        let out = rt.outputs()[0].clone();
        let tel = dpc_telemetry::Telemetry::handle();
        tel.set_span_sampling(1);
        let mut cursor = SimTime::ZERO;
        let mut latencies = Vec::new();
        for _ in 0..2 {
            let qt = QueryTrace {
                telemetry: tel.clone(),
                start: cursor,
            };
            let res = simulate_query_advanced(
                rt.net(),
                &rt.recorder().primary,
                &rt,
                rt.delp(),
                rt.fns(),
                QueryCostModel::default(),
                &out.tuple,
                &out.evid,
                Some(&qt),
            )
            .unwrap();
            cursor += res.latency;
            latencies.push(res.latency);
        }
        // Offsetting must not change the measured latency.
        assert_eq!(latencies[0], latencies[1]);
        let spans = tel.spans();
        let by_trace = dpc_telemetry::spans_by_trace(&spans);
        assert_eq!(by_trace.len(), 2);
        let mut roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
        roots.sort_by_key(|s| s.start_ns);
        // The second query's trace begins where the first ended.
        assert_eq!(roots[0].start_ns, 0);
        assert_eq!(roots[1].start_ns, roots[0].end_ns.unwrap());
    }

    #[test]
    fn traced_exspan_query_is_well_formed() {
        let rt = setup_exspan(5);
        let out = rt.outputs()[0].clone();
        let tel = dpc_telemetry::Telemetry::handle();
        tel.set_span_sampling(1);
        let qt = QueryTrace {
            telemetry: tel.clone(),
            start: SimTime::ZERO,
        };
        let res = simulate_query_exspan(
            rt.net(),
            &rt.recorder().primary,
            &rt,
            QueryCostModel::default(),
            &out.tuple,
            Some(&qt),
        )
        .unwrap();
        let spans = tel.spans();
        let by_trace = dpc_telemetry::spans_by_trace(&spans);
        let tree = by_trace.values().next().unwrap();
        dpc_telemetry::check_well_formed(tree).unwrap();
        let root = tree.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(root.duration_ns(), res.latency.as_nanos());
        let bd = dpc_telemetry::critical_path(tree).unwrap();
        assert_eq!(bd.total(), root.duration_ns());
        // Querier-driven rounds: network dominates on a 5-node line.
        assert!(bd.network > bd.storage, "{bd:?}");
    }

    #[test]
    fn unknown_output_errors() {
        let rt = setup(3);
        let bogus = Tuple::new("recv", vec![dpc_common::Value::Addr(n(2))]);
        let err = simulate_query_advanced(
            rt.net(),
            &rt.recorder().primary,
            &rt,
            rt.delp(),
            rt.fns(),
            QueryCostModel::default(),
            &bogus,
            &rt.outputs()[0].evid,
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("no prov row"), "{err}");
    }

    #[test]
    fn message_count_tracks_chain_length() {
        // Chain of k rule executions on a line: forward hops + the return,
        // all routed over adjacent links.
        let rt = setup(6); // 5 hops: r1 x5? (line of 6: 5 r1 + 1 r2)
        let out = rt.outputs()[0].clone();
        let res = simulate_query_advanced(
            rt.net(),
            &rt.recorder().primary,
            &rt,
            rt.delp(),
            rt.fns(),
            QueryCostModel::default(),
            &out.tuple,
            &out.evid,
            None,
        )
        .unwrap();
        // Forward: querier(n5) -> n5 (local) is free; chain walks n5 ->
        // n4 -> ... -> n0 (5 link messages); return n0 -> n5 (5 hops).
        assert_eq!(res.messages, 10);
    }
}
