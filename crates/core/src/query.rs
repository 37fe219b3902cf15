//! Distributed provenance querying (Sections 2.2, 4 and 5.6), executed as
//! messages on the simulated network.
//!
//! A query starts at the node holding the queried output tuple (the
//! querier) and walks the distributed provenance tables one rule
//! execution at a time. One engine runs every scheme's query; a small
//! per-scheme `Walk` says what each step reads and how the tree is
//! assembled:
//!
//! * **Basic** and **Advanced** send a query that *travels* the
//!   `(NLoc, NRID)` chain hop by hop — the chain nodes are the original
//!   forwarding path, so consecutive nodes are neighbors — accumulating
//!   the small `ruleExec` rows and leaf tuples. The collected entries
//!   return to the querier, which *re-derives* the intermediate tuples
//!   locally ([`crate::reconstruct`]).
//! * **ExSPAN**'s recursive query is *querier-driven*: each level is one
//!   request/response round trip from the querier, fetching the
//!   `ruleExec` row with every child's `prov` row and content — ExSPAN
//!   materializes every tuple and the querier retrieves them to present
//!   the tree (Section 2.2 walks vid6 → rid3 → vid5 → ... exactly this
//!   way).
//!
//! This difference — per-level round trips shipping large intermediate
//! tuples vs. a single traversal of small rows — is what produces the ~3x
//! latency gap of Figure 12. Link queuing and transmission delays come
//! from the simulator; per-row processing and re-execution times from
//! [`QueryCostModel`].

use dpc_common::{Error, EvId, NodeId, Result, Rid, StorageSize, Tuple, Vid};
use dpc_engine::{FnRegistry, PlanSet, ProvRecorder, Runtime};
use dpc_ndlog::Delp;
use dpc_netsim::{Network, Sim, SimTime};
use dpc_telemetry::{AttrValue, SpanContext, TelemetryHandle};

use crate::advanced::AdvancedRecorder;
use crate::basic::BasicRecorder;
use crate::exspan::ExspanRecorder;
use crate::reconstruct::{reconstruct, ChainLevel};
use crate::storage::ProvRow;
use crate::tree::ProvTree;

/// Resolves tuple contents at query time: the leaf tuples referenced by
/// `VIDS` columns and the materialized input events referenced by `EVID`,
/// plus the compiled rules that re-derive the intermediate tuples.
pub trait TupleResolver {
    /// The input event materialized at `node` under `evid`.
    fn event_by_evid(&self, node: NodeId, evid: &EvId) -> Option<&Tuple>;
    /// Any tuple stored at `node` by content hash.
    fn tuple_by_vid(&self, node: NodeId, vid: &Vid) -> Option<&Tuple>;
    /// The deployed program's compiled rules.
    fn plans(&self) -> &PlanSet;
}

impl<R: ProvRecorder> TupleResolver for Runtime<R> {
    fn event_by_evid(&self, node: NodeId, evid: &EvId) -> Option<&Tuple> {
        Runtime::event_by_evid(self, node, evid)
    }
    fn tuple_by_vid(&self, node: NodeId, vid: &Vid) -> Option<&Tuple> {
        Runtime::tuple_by_vid(self, node, vid)
    }
    fn plans(&self) -> &PlanSet {
        Runtime::plans(self)
    }
}

/// Query-time cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct QueryCostModel {
    /// Processing time per row looked up at a node.
    pub per_row_proc: SimTime,
    /// Compute time per rule re-executed during reconstruction.
    pub reexec_per_rule: SimTime,
}

impl Default for QueryCostModel {
    fn default() -> Self {
        QueryCostModel {
            per_row_proc: SimTime::from_micros(50),
            reexec_per_rule: SimTime::from_micros(20),
        }
    }
}

/// Everything a query needs besides the scheme's tables.
pub struct QueryCtx<'a> {
    /// The network the query's messages travel.
    pub net: &'a Network,
    /// The deployed program's compiled rules (for reconstruction).
    pub plans: &'a PlanSet,
    /// User-defined functions (for reconstruction).
    pub fns: &'a FnRegistry,
    /// Tuple content resolution.
    pub resolver: &'a dyn TupleResolver,
    /// Cost parameters.
    pub cost: QueryCostModel,
}

impl<'a> QueryCtx<'a> {
    /// Build a context borrowing everything from a finished runtime.
    pub fn from_runtime<R: ProvRecorder>(rt: &'a Runtime<R>) -> QueryCtx<'a> {
        QueryCtx {
            net: rt.net(),
            plans: rt.plans(),
            fns: rt.fns(),
            resolver: rt,
            cost: QueryCostModel::default(),
        }
    }
}

/// The result of one provenance query.
#[derive(Debug, Clone)]
pub struct QueryResult {
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

/// The name the message-level entry points return [`QueryResult`] under.
pub type SimulatedQuery = QueryResult;

/// Tracing options for a query: where the spans go, and where on the
/// shared trace timeline this query starts.
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
    /// span.
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

/// One rule execution as read at its node.
struct Fetched {
    /// The rule and the slow-changing tuples it joined.
    level: ChainLevel,
    /// The event child. ExSPAN ships it with every level; Basic and
    /// Advanced read it only at the chain tail, where the input event
    /// entered.
    event: Option<Tuple>,
    /// Rows read, for the per-row processing time.
    rows: usize,
    /// Serialized size of the rows and contents read (a traveling query's
    /// input event ships on top).
    bytes: usize,
    /// The next rule execution toward the input event.
    next: Option<(NodeId, Rid)>,
}

/// What one scheme's tables answer to the query engine.
trait Walk {
    /// The root span's `scheme` attribute.
    const SCHEME: &'static str;
    /// Span name and row count of the querier's initial `prov` lookup.
    const LOOKUP: (&'static str, usize);
    /// ExSPAN: every level returns to the querier, which sends the next
    /// request. Otherwise the query travels the chain.
    const QUERIER_DRIVEN: bool;
    /// Read rule execution `rid` at `node`.
    fn step(&self, node: NodeId, rid: &Rid) -> Result<Fetched>;
    /// Build the tree for `output` from the levels fetched (root-first)
    /// and the event children they shipped.
    fn assemble(
        &self,
        output: &Tuple,
        levels: Vec<ChainLevel>,
        events: Vec<Tuple>,
    ) -> Result<ProvTree>;
}

/// The content of `vid` stored at `node`.
fn content(res: &dyn TupleResolver, node: NodeId, vid: &Vid, what: &str) -> Result<Tuple> {
    res.tuple_by_vid(node, vid)
        .cloned()
        .ok_or_else(|| Error::ProvenanceLookup(format!("{what} {vid} missing at {node}")))
}

/// The rule execution a `prov` row (ExSPAN / Basic layout) points at.
fn derived_by(prov: Option<&ProvRow>, output: &Tuple, querier: NodeId) -> Result<(NodeId, Rid)> {
    let prov = prov
        .ok_or_else(|| Error::ProvenanceLookup(format!("no prov row for {output} at {querier}")))?;
    prov.rloc.zip(prov.rid).ok_or_else(|| {
        Error::ProvenanceLookup(format!("{output} is a base tuple, not a derived output"))
    })
}

struct ExspanWalk<'a> {
    rec: &'a ExspanRecorder,
    res: &'a dyn TupleResolver,
}

impl Walk for ExspanWalk<'_> {
    const SCHEME: &'static str = "exspan";
    const LOOKUP: (&'static str, usize) = ("query.lookup", 2);
    const QUERIER_DRIVEN: bool = true;

    fn step(&self, node: NodeId, rid: &Rid) -> Result<Fetched> {
        let re = self
            .rec
            .rule_exec(node, rid)
            .ok_or_else(|| Error::ProvenanceLookup(format!("no ruleExec row {rid} at {node}")))?;
        // The row, then every child's prov row and content (the children
        // of a rule execution all live at its node).
        let mut bytes = re.size_bytes(false);
        let mut children = Vec::with_capacity(re.vids.len());
        for vid in &re.vids {
            let p = self.rec.prov_row(node, vid).ok_or_else(|| {
                Error::ProvenanceLookup(format!("no prov row for child {vid} at {node}"))
            })?;
            let t = content(self.res, node, vid, "child content")?;
            bytes += p.storage_size() + t.storage_size();
            children.push((t, p.rloc.zip(p.rid)));
        }
        // The event child comes first; the rest are slow-changing leaves.
        let mut children = children.into_iter();
        let (event, next) = children
            .next()
            .ok_or_else(|| Error::ProvenanceLookup(format!("ruleExec {rid} has no children")))?;
        let mut slow = Vec::with_capacity(re.vids.len() - 1);
        for (t, deriv) in children {
            if deriv.is_some() {
                return Err(Error::ProvenanceLookup(format!(
                    "slow child {t} of {rid} is unexpectedly derived"
                )));
            }
            slow.push(t);
        }
        Ok(Fetched {
            level: ChainLevel {
                rule: re.rule.clone(),
                slow,
            },
            event: Some(event),
            rows: 1 + 2 * re.vids.len(),
            bytes,
            next,
        })
    }

    fn assemble(
        &self,
        output: &Tuple,
        levels: Vec<ChainLevel>,
        mut events: Vec<Tuple>,
    ) -> Result<ProvTree> {
        // The last event child is the input event; every other one is the
        // tuple the level below derived.
        let event = events.pop().expect("every level ships its event child");
        events.insert(0, output.clone());
        let mut levels = levels.into_iter().zip(events).rev();
        let (ChainLevel { rule, slow }, output) = levels.next().expect("one level at least");
        let mut tree = ProvTree::Leaf {
            rule,
            output,
            event,
            slow,
        };
        for (ChainLevel { rule, slow }, output) in levels {
            tree = ProvTree::Node {
                rule,
                output,
                child: Box::new(tree),
                slow,
            };
        }
        Ok(tree)
    }
}

struct BasicWalk<'a> {
    rec: &'a BasicRecorder,
    ctx: &'a QueryCtx<'a>,
}

impl Walk for BasicWalk<'_> {
    const SCHEME: &'static str = "basic";
    const LOOKUP: (&'static str, usize) = ("query.lookup", 1);
    const QUERIER_DRIVEN: bool = false;

    fn step(&self, node: NodeId, rid: &Rid) -> Result<Fetched> {
        let row = self
            .rec
            .rule_exec(node, rid)
            .ok_or_else(|| Error::ProvenanceLookup(format!("no ruleExec row {rid} at {node}")))?;
        // On the chain tail the first vid is the input event.
        let (event, slow_vids) = match row.next {
            Some(_) => (None, &row.vids[..]),
            None => {
                let (first, rest) = row.vids.split_first().ok_or_else(|| {
                    Error::ProvenanceLookup(format!("chain tail {rid} lacks its event vid"))
                })?;
                let event = content(self.ctx.resolver, node, first, "event tuple")?;
                (Some(event), rest)
            }
        };
        let slow = slow_vids
            .iter()
            .map(|v| content(self.ctx.resolver, node, v, "slow tuple"))
            .collect::<Result<Vec<_>>>()?;
        Ok(Fetched {
            rows: 1 + slow.len(),
            bytes: row.size_bytes(true) + slow.iter().map(Tuple::storage_size).sum::<usize>(),
            level: ChainLevel {
                rule: row.rule.clone(),
                slow,
            },
            event,
            next: row.next,
        })
    }

    fn assemble(&self, _: &Tuple, levels: Vec<ChainLevel>, events: Vec<Tuple>) -> Result<ProvTree> {
        reconstruct(self.ctx.plans, self.ctx.fns, &levels, &events[0])
    }
}

struct AdvancedWalk<'a> {
    rec: &'a AdvancedRecorder,
    ctx: &'a QueryCtx<'a>,
    evid: EvId,
}

impl AdvancedWalk<'_> {
    /// `GET_PROV` at the querier: every derivation of `output` the
    /// execution stored (Appendix E).
    fn starts(&self, output: &Tuple) -> Result<Vec<(NodeId, Rid)>> {
        let querier = output.loc()?;
        let provs = self.rec.prov_rows(querier, &output.vid(), &self.evid);
        if provs.is_empty() {
            return Err(Error::ProvenanceLookup(format!(
                "no prov row for {output} / {} at {querier}",
                self.evid
            )));
        }
        Ok(provs.iter().map(|p| (p.rloc, p.rid)).collect())
    }
}

impl Walk for AdvancedWalk<'_> {
    const SCHEME: &'static str = "advanced";
    // The prov row resolves through the equivalence-tagged table, so the
    // initial lookup is equivalence work.
    const LOOKUP: (&'static str, usize) = ("query.eq_lookup", 1);
    const QUERIER_DRIVEN: bool = false;

    fn step(&self, node: NodeId, rid: &Rid) -> Result<Fetched> {
        let view = self
            .rec
            .rule_exec(node, rid)
            .ok_or_else(|| Error::ProvenanceLookup(format!("no ruleExec node {rid} at {node}")))?;
        let slow = view
            .vids
            .iter()
            .map(|v| content(self.ctx.resolver, node, v, "slow tuple"))
            .collect::<Result<Vec<_>>>()?;
        // The chain tail reads the event peculiar to this execution,
        // materialized at the input node.
        let event = match view.next {
            Some(_) => None,
            None => Some(
                self.ctx
                    .resolver
                    .event_by_evid(node, &self.evid)
                    .cloned()
                    .ok_or_else(|| {
                        Error::ProvenanceLookup(format!(
                            "event {} not materialized at {node}",
                            self.evid
                        ))
                    })?,
            ),
        };
        // RLoc, RID, R, VIDS and (NLoc, NRID), then the slow tuples.
        let row = 4 + 20 + (4 + view.rule.len()) + 4 + view.vids.len() * 20 + 25;
        Ok(Fetched {
            rows: 1 + slow.len(),
            bytes: row + slow.iter().map(Tuple::storage_size).sum::<usize>(),
            level: ChainLevel {
                rule: view.rule,
                slow,
            },
            event,
            next: view.next,
        })
    }

    fn assemble(&self, _: &Tuple, levels: Vec<ChainLevel>, events: Vec<Tuple>) -> Result<ProvTree> {
        reconstruct(self.ctx.plans, self.ctx.fns, &levels, &events[0])
    }
}

/// The query's collected entries, carried by its messages.
#[derive(Default)]
struct State {
    levels: Vec<ChainLevel>,
    events: Vec<Tuple>,
    /// Serialized size of the entries a traveling query has collected.
    payload: usize,
}

/// Messages of the query protocol.
enum QMsg {
    /// Read rule execution `rid` here.
    Step { rid: Rid, state: State },
    /// Back at the querier; under ExSPAN the querier then requests `next`.
    Done {
        state: State,
        next: Option<(NodeId, Rid)>,
    },
    /// Local processing finished: send `inner` to `to` with `bytes` on the
    /// wire (delivered locally when already there).
    Forward {
        to: NodeId,
        bytes: usize,
        inner: Box<QMsg>,
    },
}

/// Base wire size of a query request (ids and bookkeeping).
const REQUEST_BYTES: usize = 48;

/// Run the query for `output` over `net`, starting from the rule
/// executions in `starts` in turn until one reconstructs `output`
/// (Appendix E). The result's tree is the last one assembled, which may
/// not be `output`'s.
fn run<W: Walk>(
    net: &Network,
    cost: QueryCostModel,
    walk: &W,
    output: &Tuple,
    starts: &[(NodeId, Rid)],
    trace: Option<&QueryTrace>,
) -> Result<QueryResult> {
    let querier = output.loc()?;
    let proc = |rows: usize| SimTime::from_nanos(cost.per_row_proc.as_nanos() * rows as u64);
    // ExSPAN's querier already holds every tuple; the others re-derive.
    let per_rule = match W::QUERIER_DRIVEN {
        true => 0,
        false => cost.reexec_per_rule.as_nanos(),
    };
    let reexec = |levels: usize| SimTime::from_nanos(per_rule * levels as u64);
    let request = |(to, rid): (NodeId, Rid)| QMsg::Forward {
        to,
        bytes: REQUEST_BYTES,
        inner: Box::new(QMsg::Step {
            rid,
            state: State::default(),
        }),
    };

    let mut sim: Sim<QMsg> = Sim::new(net.clone());
    let tr = QTracer::start(trace, &mut sim, querier);
    tr.attr("scheme", || AttrValue::Str(W::SCHEME.into()));
    // The prov lookup happens at the querier, then the query departs.
    let (lookup, rows) = W::LOOKUP;
    tr.stage(lookup, querier, sim.now(), sim.now() + proc(rows));
    sim.schedule_local(querier, proc(rows), request(starts[0]));

    let mut tried = 0;
    let (tree, hops) = loop {
        let d = sim
            .pop()
            .ok_or_else(|| Error::ProvenanceLookup("query never returned to the querier".into()))?;
        let node = d.dst;
        match d.msg {
            QMsg::Forward { to, bytes, inner } => {
                sim.send_routed_traced(node, to, bytes, *inner, tr.root)?;
            }
            QMsg::Step { rid, mut state } => {
                let at = sim.now();
                let f = walk.step(node, &rid)?;
                tr.fetch(node, at, at + proc(f.rows), f.rows, f.bytes);
                state.payload += f.bytes;
                state.levels.push(f.level);
                if let Some(ev) = f.event {
                    if !W::QUERIER_DRIVEN {
                        state.payload += ev.storage_size();
                    }
                    state.events.push(ev);
                }
                let (to, bytes, inner) = if W::QUERIER_DRIVEN {
                    // This level's entries return; the querier asks for the next.
                    (
                        querier,
                        f.bytes,
                        QMsg::Done {
                            state,
                            next: f.next,
                        },
                    )
                } else if let Some((nloc, nrid)) = f.next {
                    let bytes = REQUEST_BYTES + state.payload;
                    (nloc, bytes, QMsg::Step { rid: nrid, state })
                } else {
                    (querier, state.payload, QMsg::Done { state, next: None })
                };
                let inner = Box::new(inner);
                sim.schedule_local(node, proc(f.rows), QMsg::Forward { to, bytes, inner });
            }
            QMsg::Done {
                state,
                next: Some((nloc, nrid)),
            } => {
                let step = QMsg::Step { rid: nrid, state };
                sim.send_routed_traced(querier, nloc, REQUEST_BYTES, step, tr.root)?;
            }
            QMsg::Done { state, next: None } => {
                let hops = state.levels.len();
                let tree = walk.assemble(output, state.levels, state.events)?;
                tried += 1;
                if tree.output() == output || tried == starts.len() {
                    break (tree, hops);
                }
                // A sibling derivation of the same execution (e.g. a rule
                // that joined several slow rows): walk the next one.
                let now = sim.now();
                tr.stage("query.reexec", querier, now, now + reexec(hops));
                sim.schedule_local(querier, reexec(hops), request(starts[tried]));
            }
        }
    };

    let end = sim.now();
    if !W::QUERIER_DRIVEN {
        tr.stage("query.reexec", querier, end, end + reexec(hops));
    }
    tr.attr("hops", || AttrValue::UInt(hops as u64));
    let (messages, bytes) = (sim.stats().messages(), sim.stats().total_bytes());
    tr.finish(end + reexec(hops), messages, bytes);
    Ok(QueryResult {
        tree,
        latency: (end - tr.base) + reexec(hops),
        messages,
        bytes,
    })
}

/// `res` when its tree derives `output`.
fn reproducing(res: QueryResult, output: &Tuple) -> Result<QueryResult> {
    if res.tree.output() != output {
        return Err(Error::ProvenanceLookup(format!(
            "reconstruction produced {} instead of {output}",
            res.tree.output()
        )));
    }
    Ok(res)
}

/// Query an ExSPAN-maintained provenance tree for `output`.
pub fn query_exspan(
    ctx: &QueryCtx<'_>,
    rec: &ExspanRecorder,
    output: &Tuple,
) -> Result<QueryResult> {
    simulate_query_exspan(ctx.net, rec, ctx.resolver, ctx.cost, output, None)
}

/// Query a Basic-maintained provenance tree for `output`: the query
/// travels the chain, and the input event is referenced by its `vid` in
/// the chain tail's `VIDS` column (Table 2).
pub fn query_basic(ctx: &QueryCtx<'_>, rec: &BasicRecorder, output: &Tuple) -> Result<QueryResult> {
    let querier = output.loc()?;
    let start = derived_by(rec.prov_row(querier, &output.vid()), output, querier)?;
    let walk = BasicWalk { rec, ctx };
    reproducing(
        run(ctx.net, ctx.cost, &walk, output, &[start], None)?,
        output,
    )
}

/// Query an Advanced-maintained provenance tree for `output` derived by the
/// execution identified by `evid` (Section 5.6).
///
/// An execution may have stored several derivations (`GET_PROV` returns a
/// list; Appendix E); each is walked and reconstructed in turn, and the
/// one reproducing `output` is returned.
pub fn query_advanced(
    ctx: &QueryCtx<'_>,
    rec: &AdvancedRecorder,
    output: &Tuple,
    evid: &EvId,
) -> Result<QueryResult> {
    traced_query_advanced(ctx, rec, output, evid, None)
}

/// The full `QUERY` of Appendix E (Figure 18): return *every* derivation
/// of `output` by the execution `evid` — the set `M`. Multiple
/// derivations arise when a rule joined several slow rows that produced
/// the same head tuple. Each derivation is queried on its own.
pub fn query_advanced_all(
    ctx: &QueryCtx<'_>,
    rec: &AdvancedRecorder,
    output: &Tuple,
    evid: &EvId,
) -> Result<Vec<QueryResult>> {
    let walk = AdvancedWalk {
        rec,
        ctx,
        evid: *evid,
    };
    let starts = walk.starts(output)?;
    let mut results = Vec::new();
    for start in &starts {
        let res = run(ctx.net, ctx.cost, &walk, output, &[*start], None)?;
        // Non-matching reconstructions belong to sibling outputs of the
        // same compressed execution (e.g. other DHCP pool addresses).
        if res.tree.output() == output {
            results.push(res);
        }
    }
    if results.is_empty() {
        return Err(Error::ProvenanceLookup(format!(
            "none of the {} stored derivations reproduces {output}",
            starts.len()
        )));
    }
    Ok(results)
}

/// [`query_advanced`] with every dependency spelled out and an optional
/// trace. Reconstruction runs on `resolver`'s compiled plans; the program
/// argument is not read.
#[allow(clippy::too_many_arguments)]
pub fn simulate_query_advanced(
    net: &Network,
    rec: &AdvancedRecorder,
    resolver: &dyn TupleResolver,
    _delp: &Delp,
    fns: &FnRegistry,
    cost: QueryCostModel,
    output: &Tuple,
    evid: &EvId,
    trace: Option<&QueryTrace>,
) -> Result<SimulatedQuery> {
    let ctx = &QueryCtx {
        net,
        plans: resolver.plans(),
        fns,
        resolver,
        cost,
    };
    traced_query_advanced(ctx, rec, output, evid, trace)
}

/// [`query_advanced`] with an optional trace.
fn traced_query_advanced(
    ctx: &QueryCtx<'_>,
    rec: &AdvancedRecorder,
    output: &Tuple,
    evid: &EvId,
    trace: Option<&QueryTrace>,
) -> Result<SimulatedQuery> {
    let walk = AdvancedWalk {
        rec,
        ctx,
        evid: *evid,
    };
    let starts = walk.starts(output)?;
    reproducing(
        run(ctx.net, ctx.cost, &walk, output, &starts, trace)?,
        output,
    )
}

/// [`query_exspan`] with every dependency spelled out and an optional
/// trace.
pub fn simulate_query_exspan(
    net: &Network,
    rec: &ExspanRecorder,
    resolver: &dyn TupleResolver,
    cost: QueryCostModel,
    output: &Tuple,
    trace: Option<&QueryTrace>,
) -> Result<SimulatedQuery> {
    let querier = output.loc()?;
    let start = derived_by(rec.prov_row(querier, &output.vid()), output, querier)?;
    let walk = ExspanWalk { rec, res: resolver };
    run(net, cost, &walk, output, &[start], trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::GroundTruthRecorder;
    use dpc_apps::forwarding;
    use dpc_common::Value;
    use dpc_engine::{OutputRecord, TeeRecorder};
    use dpc_ndlog::{equivalence_keys, programs};
    use dpc_netsim::{topo, Link};

    type Run<R> = Runtime<TeeRecorder<R, GroundTruthRecorder>>;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Packets forwarded from n0 to the end of a `len`-node line, one per
    /// payload, recorded by `rec` beside the ground truth.
    fn line<R: ProvRecorder>(len: usize, rec: R, payloads: &[&str]) -> Run<R> {
        let net = topo::line(len, Link::STUB_STUB);
        let mut rt =
            forwarding::make_runtime(net, TeeRecorder::new(rec, GroundTruthRecorder::new()));
        let dst = n(len as u32 - 1);
        forwarding::install_routes_for_pairs(&mut rt, &[(n(0), dst)]).unwrap();
        for p in payloads {
            rt.inject(forwarding::packet(n(0), n(0), dst, p)).unwrap();
        }
        rt.run().unwrap();
        rt
    }

    fn one_packet<R: ProvRecorder>(len: usize, rec: R) -> Run<R> {
        line(len, rec, &[&forwarding::payload(1)])
    }

    fn advanced(len: usize) -> AdvancedRecorder {
        AdvancedRecorder::new(len, equivalence_keys(&programs::packet_forwarding()))
    }

    fn exspan_query(rt: &Run<ExspanRecorder>, out: &OutputRecord) -> Result<QueryResult> {
        query_exspan(
            &QueryCtx::from_runtime(rt),
            &rt.recorder().primary,
            &out.tuple,
        )
    }

    fn basic_query(rt: &Run<BasicRecorder>, out: &OutputRecord) -> Result<QueryResult> {
        query_basic(
            &QueryCtx::from_runtime(rt),
            &rt.recorder().primary,
            &out.tuple,
        )
    }

    fn advanced_query(rt: &Run<AdvancedRecorder>, out: &OutputRecord) -> Result<QueryResult> {
        let ctx = QueryCtx::from_runtime(rt);
        query_advanced(&ctx, &rt.recorder().primary, &out.tuple, &out.evid)
    }

    /// Every output of `rt` queries to its ground-truth tree.
    fn assert_ground_truth<R: ProvRecorder>(
        rt: &Run<R>,
        query: impl Fn(&Run<R>, &OutputRecord) -> Result<QueryResult>,
    ) {
        for out in rt.outputs() {
            let res = query(rt, out).unwrap();
            let truth = rt.recorder().shadow.tree_for(&out.tuple, &out.evid);
            assert_eq!(Some(&res.tree), truth, "output {}", out.tuple);
            assert!(res.latency > SimTime::ZERO && res.messages > 0 && res.bytes > 0);
        }
    }

    #[test]
    fn every_scheme_returns_the_ground_truth_tree() {
        // Two packets: the second is a compressed member of the first's
        // equivalence class under Advanced.
        let payloads = ["data", "url"];
        assert_ground_truth(&line(5, ExspanRecorder::new(5), &payloads), exspan_query);
        assert_ground_truth(&line(5, BasicRecorder::new(5), &payloads), basic_query);
        assert_ground_truth(&line(5, advanced(5), &payloads), advanced_query);
        let keys = equivalence_keys(&programs::packet_forwarding());
        let inter = AdvancedRecorder::with_inter_class(5, keys);
        assert_ground_truth(&line(5, inter, &payloads), advanced_query);
    }

    /// The messages, bytes and latency of one query on a 6-node line,
    /// pinned exactly per scheme so any change to the protocol's messages
    /// shows here. The chain walks n5 -> n4 -> ... -> n0 (5 link
    /// messages) and returns n0 -> n5 (5 hops); ExSPAN's querier makes a
    /// round trip per level instead.
    #[test]
    fn message_count_tracks_chain_length() {
        let rt_a = one_packet(6, advanced(6));
        let rt_b = one_packet(6, BasicRecorder::new(6));
        let rt_e = one_packet(6, ExspanRecorder::new(6));
        let got = [
            advanced_query(&rt_a, &rt_a.outputs()[0]),
            basic_query(&rt_b, &rt_b.outputs()[0]),
            exspan_query(&rt_e, &rt_e.outputs()[0]),
        ];
        let want = [
            ("Advanced", 10, 7245, 21_879_200),
            ("Basic", 10, 7225, 21_876_000),
            ("ExSPAN", 30, 11_280, 63_304_800),
        ];
        for (res, (scheme, messages, bytes, latency_ns)) in got.into_iter().zip(want) {
            let res = res.unwrap();
            assert_eq!(res.messages, messages, "{scheme}");
            assert_eq!(res.bytes, bytes, "{scheme}");
            assert_eq!(res.latency.as_nanos(), latency_ns, "{scheme}");
        }
    }

    /// The analytic cost model the message-level engine replaced, kept as
    /// an oracle: path latencies, per-row processing and transfer at the
    /// bottleneck bandwidth, summed instead of simulated.
    mod oracle {
        use super::*;

        fn ship(net: &Network, querier: NodeId, node: NodeId, bytes: usize) -> SimTime {
            if node == querier {
                return SimTime::ZERO;
            }
            let bps = net
                .latency_tree(querier)
                .unwrap()
                .bottleneck_bps(node)
                .unwrap();
            SimTime::from_nanos((bytes as u128 * 8 * 1_000_000_000 / bps as u128) as u64)
        }

        /// Advanced's chain: the cursor hops along the chain, every row
        /// read ships to the querier, then each level is re-executed.
        pub fn chain(ctx: &QueryCtx<'_>, rec: &AdvancedRecorder, out: &OutputRecord) -> SimTime {
            let querier = out.tuple.loc().unwrap();
            let prov = &rec.prov_rows(querier, &out.tuple.vid(), &out.evid)[0];
            let (mut latency, mut transfer) = (ctx.cost.per_row_proc, SimTime::ZERO);
            let (mut cur, mut next, mut levels) = (querier, Some((prov.rloc, prov.rid)), 0);
            while let Some((loc, rid)) = next {
                latency += ctx.net.latency_tree(cur).unwrap().latency(loc).unwrap();
                cur = loc;
                let view = rec.rule_exec(loc, &rid).unwrap();
                let row = 4 + 20 + (4 + view.rule.len()) + 4 + view.vids.len() * 20;
                let mut items = vec![row + view.next.storage_size()];
                for v in &view.vids {
                    items.push(ctx.resolver.tuple_by_vid(loc, v).unwrap().storage_size());
                }
                if view.next.is_none() {
                    let event = ctx.resolver.event_by_evid(loc, &out.evid).unwrap();
                    items.push(event.storage_size());
                }
                for bytes in items {
                    latency += ctx.cost.per_row_proc;
                    transfer += ship(ctx.net, querier, loc, bytes);
                }
                levels += 1;
                next = view.next;
            }
            let reexec = SimTime::from_nanos(ctx.cost.reexec_per_rule.as_nanos() * levels);
            latency
                + ctx.net.latency_tree(cur).unwrap().latency(querier).unwrap()
                + transfer
                + reexec
        }

        /// ExSPAN's rounds: per level, a round trip from the querier that
        /// reads the `ruleExec` row and every child's prov row and content.
        pub fn exspan(ctx: &QueryCtx<'_>, rec: &ExspanRecorder, out: &Tuple) -> SimTime {
            let querier = out.loc().unwrap();
            let prov = rec.prov_row(querier, &out.vid()).unwrap();
            // The output's own prov row and content, read locally.
            let mut latency = ctx.cost.per_row_proc + ctx.cost.per_row_proc;
            let mut deriv = prov.rloc.zip(prov.rid);
            while let Some((loc, rid)) = deriv {
                let re = rec.rule_exec(loc, &rid).unwrap();
                let mut items = vec![re.size_bytes(false)];
                for v in &re.vids {
                    items.push(rec.prov_row(loc, v).unwrap().storage_size());
                    items.push(ctx.resolver.tuple_by_vid(loc, v).unwrap().storage_size());
                }
                let one_way = ctx.net.latency_tree(querier).unwrap().latency(loc).unwrap();
                latency += one_way + one_way;
                for bytes in items {
                    latency += ctx.cost.per_row_proc + ship(ctx.net, querier, loc, bytes);
                }
                let event = rec.prov_row(loc, &re.vids[0]).unwrap();
                deriv = event.rloc.zip(event.rid);
            }
            latency
        }
    }

    fn assert_within_2x(simulated: SimTime, analytic: SimTime) {
        let ratio = simulated.as_secs_f64() / analytic.as_secs_f64();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "simulated {simulated} vs analytic {analytic} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn simulated_latency_validates_the_analytic_model() {
        let rt = one_packet(7, advanced(7));
        let out = &rt.outputs()[0];
        let ctx = QueryCtx::from_runtime(&rt);
        let analytic = oracle::chain(&ctx, &rt.recorder().primary, out);
        assert_within_2x(advanced_query(&rt, out).unwrap().latency, analytic);
    }

    #[test]
    fn simulated_exspan_validates_its_analytic_model() {
        let rt = one_packet(7, ExspanRecorder::new(7));
        let out = &rt.outputs()[0];
        let ctx = QueryCtx::from_runtime(&rt);
        let analytic = oracle::exspan(&ctx, &rt.recorder().primary, &out.tuple);
        assert_within_2x(exspan_query(&rt, out).unwrap().latency, analytic);
    }

    #[test]
    fn figure12_gap_reproduces_mechanically() {
        // ExSPAN's querier-driven rounds lose to the traveling chain query
        // on a long path; Basic and Advanced walk the same chain shape.
        let len = 9;
        let rt_e = one_packet(len, ExspanRecorder::new(len));
        let rt_b = one_packet(len, BasicRecorder::new(len));
        let rt_a = one_packet(len, advanced(len));
        let exspan = exspan_query(&rt_e, &rt_e.outputs()[0]).unwrap();
        let basic = basic_query(&rt_b, &rt_b.outputs()[0]).unwrap();
        let adv = advanced_query(&rt_a, &rt_a.outputs()[0]).unwrap();
        for (name, chain) in [("basic", &basic), ("advanced", &adv)] {
            let ratio = exspan.latency.as_secs_f64() / chain.latency.as_secs_f64();
            assert!(
                ratio > 2.0,
                "exspan/{name} ratio {ratio:.2}: expected the Figure 12 gap"
            );
            // ExSPAN also ships more bytes (the intermediate tuple contents).
            assert!(exspan.bytes > chain.bytes, "{name}");
        }
        let ratio = basic.latency.as_secs_f64() / adv.latency.as_secs_f64();
        assert!((0.8..=1.3).contains(&ratio), "basic/advanced ratio {ratio}");
    }

    #[test]
    fn query_all_returns_every_derivation() {
        // A program where one event derives the same output through two
        // different slow rows: out(@X) ignores the slow row's payload.
        let src = r#"
            r1 mid(@X, K) :- e(@X, K), s(@X, K, K).
            r2 out(@X, K) :- mid(@X, K), t(@X, K).
        "#;
        let delp = dpc_ndlog::Delp::new(dpc_ndlog::parse_program(src).unwrap()).unwrap();
        let keys = dpc_ndlog::equivalence_keys(&delp);
        let rec = TeeRecorder::new(AdvancedRecorder::new(1, keys), GroundTruthRecorder::new());
        let mut rt = Runtime::new(delp, Network::with_nodes(1), rec).unwrap();
        // Two distinct `t` rows joining the same mid tuple -> two
        // derivations of the same `out` tuple.
        let t1 = Tuple::new("t", vec![Value::Addr(n(0)), Value::Int(1)]);
        rt.install(Tuple::new(
            "s",
            vec![Value::Addr(n(0)), Value::Int(1), Value::Int(1)],
        ))
        .unwrap();
        rt.install(t1).unwrap();
        rt.inject(Tuple::new("e", vec![Value::Addr(n(0)), Value::Int(1)]))
            .unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 1);
        let out = rt.outputs()[0].clone();
        let ctx = QueryCtx::from_runtime(&rt);
        let all = query_advanced_all(&ctx, &rt.recorder().primary, &out.tuple, &out.evid).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].tree.output(), &out.tuple);
    }

    #[test]
    fn query_all_returns_multiple_trees_for_multi_derivations() {
        // Same head from two different slow rows: head omits the joined
        // attribute that differs.
        let src = r#"
            r1 out(@X, K) :- e(@X, K), s(@X, V).
        "#;
        let delp = dpc_ndlog::Delp::new(dpc_ndlog::parse_program(src).unwrap()).unwrap();
        let keys = dpc_ndlog::equivalence_keys(&delp);
        let mut rt =
            Runtime::new(delp, Network::with_nodes(1), AdvancedRecorder::new(1, keys)).unwrap();
        rt.install(Tuple::new("s", vec![Value::Addr(n(0)), Value::Int(7)]))
            .unwrap();
        rt.install(Tuple::new("s", vec![Value::Addr(n(0)), Value::Int(8)]))
            .unwrap();
        rt.inject(Tuple::new("e", vec![Value::Addr(n(0)), Value::Int(1)]))
            .unwrap();
        rt.run().unwrap();
        // The same out tuple derives twice (once per s row).
        assert_eq!(rt.outputs().len(), 2);
        assert_eq!(rt.outputs()[0].tuple, rt.outputs()[1].tuple);
        let out = rt.outputs()[0].clone();
        let ctx = QueryCtx::from_runtime(&rt);
        let all = query_advanced_all(&ctx, rt.recorder(), &out.tuple, &out.evid).unwrap();
        assert_eq!(all.len(), 2, "both derivations are returned (the set M)");
        assert_ne!(all[0].tree, all[1].tree);
        assert!(all.iter().all(|r| r.tree.output() == &out.tuple));
        // They differ exactly in the slow tuple used.
        let slows: std::collections::BTreeSet<_> =
            all.iter().map(|r| r.tree.slow()[0].clone()).collect();
        assert_eq!(slows.len(), 2);
        // query_advanced walks the first stored derivation, which
        // reproduces the output.
        let first = query_advanced(&ctx, rt.recorder(), &out.tuple, &out.evid).unwrap();
        assert_eq!(first.tree, all[0].tree);
    }

    fn traced_advanced(rt: &Run<AdvancedRecorder>, qt: &QueryTrace) -> QueryResult {
        let out = &rt.outputs()[0];
        let rec = &rt.recorder().primary;
        let (delp, fns, cost) = (rt.delp(), rt.fns(), QueryCostModel::default());
        let (tuple, evid) = (&out.tuple, &out.evid);
        simulate_query_advanced(rt.net(), rec, rt, delp, fns, cost, tuple, evid, Some(qt)).unwrap()
    }

    #[test]
    fn traced_query_breakdown_covers_root_exactly() {
        let rt = one_packet(6, advanced(6));
        let tel = dpc_telemetry::Telemetry::handle();
        tel.set_span_sampling(1);
        let qt = QueryTrace {
            telemetry: tel.clone(),
            start: SimTime::ZERO,
        };
        let res = traced_advanced(&rt, &qt);
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
        let rt = one_packet(4, advanced(4));
        let tel = dpc_telemetry::Telemetry::handle();
        tel.set_span_sampling(1);
        let mut cursor = SimTime::ZERO;
        let mut latencies = Vec::new();
        for _ in 0..2 {
            let qt = QueryTrace {
                telemetry: tel.clone(),
                start: cursor,
            };
            let res = traced_advanced(&rt, &qt);
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
        let rt = one_packet(5, ExspanRecorder::new(5));
        let out = rt.outputs()[0].clone();
        let tel = dpc_telemetry::Telemetry::handle();
        tel.set_span_sampling(1);
        let qt = QueryTrace {
            telemetry: tel.clone(),
            start: SimTime::ZERO,
        };
        let (rec, cost) = (&rt.recorder().primary, QueryCostModel::default());
        let res = simulate_query_exspan(rt.net(), rec, &rt, cost, &out.tuple, Some(&qt)).unwrap();
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

    /// An unknown output, a base `route` tuple and a real output under
    /// another execution's `evid` each fail with a lookup error under every
    /// scheme, never a panic. Only Advanced keys its rows by `evid`; the
    /// others answer the last case.
    #[test]
    fn bad_queries_fail_with_lookup_errors() {
        type Query<R> = fn(&Run<R>, &OutputRecord) -> Result<QueryResult>;
        fn check<R: ProvRecorder>(rt: Run<R>, query: Query<R>, want: [Option<&str>; 3]) {
            let real = &rt.outputs()[0];
            let cases = [
                (
                    Tuple::new("recv", vec![Value::Addr(n(2)), Value::str("nope")]),
                    real.evid,
                ),
                (forwarding::route(n(0), n(2), n(1)), real.evid),
                (real.tuple.clone(), EvId::of_bytes(b"other")),
            ];
            for ((tuple, evid), want) in cases.into_iter().zip(want) {
                let out = OutputRecord {
                    tuple,
                    evid,
                    ..real.clone()
                };
                match (query(&rt, &out), want) {
                    (Err(Error::ProvenanceLookup(msg)), Some(want)) => {
                        assert!(msg.contains(want), "{}: {msg}", out.tuple)
                    }
                    (Ok(_), None) => {}
                    (res, _) => panic!("{}: {res:?}", out.tuple),
                }
            }
        }
        let exspan = one_packet(3, ExspanRecorder::new(3));
        check(
            exspan,
            exspan_query,
            [Some("no prov row"), Some("base tuple"), None],
        );
        let basic = one_packet(3, BasicRecorder::new(3));
        check(
            basic,
            basic_query,
            [Some("no prov row"), Some("no prov row"), None],
        );
        check(
            one_packet(3, advanced(3)),
            advanced_query,
            [Some("no prov row"); 3],
        );
    }
}
