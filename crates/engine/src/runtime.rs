//! The pipelined semi-naïve runtime.
//!
//! A [`Runtime`] deploys one DELP on every node of a simulated network and
//! processes injected input events: each event joins the local
//! slow-changing tables, fires the matching rules, and the derived head
//! tuples ship to the node named by their location specifier — continuing
//! until the output relation derives (Section 3.1). Provenance maintenance
//! hooks fire at each stage through the [`ProvRecorder`].
//!
//! [`Runtime::new`] is the only constructor: it compiles every rule to a
//! plan and audits the plans, returning an `Err` for a program it cannot
//! run. Configuration, relations of interest, user-defined functions and
//! telemetry are set on the runtime before the first event
//! ([`Runtime::set_config`], [`Runtime::set_interest`],
//! [`Runtime::fns_mut`], [`Runtime::attach_telemetry`]).
//!
//! Slow-changing tables can be updated while the system runs
//! ([`Runtime::update_slow_at`]): per Section 5.5, an insertion broadcasts a
//! `sig` control message that makes every node clear its equivalence-keys
//! hash table, so subsequent executions re-materialize provenance.

use std::collections::HashMap;

use dpc_common::{Error, EvId, NodeId, Result, StorageSize, Tuple, Vid};
use dpc_ndlog::Delp;
use dpc_netsim::{Network, Sim, SimTime, TrafficStats};
use dpc_telemetry::{AttrValue, Counter, PerNode, SpanContext, TelemetryHandle};

use crate::db::Database;
use crate::eval::FnRegistry;
use crate::plan::{EvalStats, PlanSet};
use crate::recorder::{ProvMeta, ProvRecorder, Stage};

/// Messages exchanged by the runtime over the simulated network.
#[derive(Debug, Clone)]
enum Msg {
    /// A tuple delivery (input event, intermediate event or output tuple).
    Event { tuple: Tuple, meta: ProvMeta },
    /// Apply an insertion into a slow-changing table at the destination,
    /// then broadcast `sig`.
    SlowInsert { tuple: Tuple },
    /// Apply a deletion from a slow-changing table.
    SlowDelete { tuple: Tuple },
    /// The Section 5.5 control broadcast.
    Sig,
}

/// A completed execution's output tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRecord {
    /// When the output derived.
    pub at: SimTime,
    /// Node where the output tuple lives.
    pub node: NodeId,
    /// The output tuple.
    pub tuple: Tuple,
    /// The input event's id.
    pub evid: EvId,
    /// The execution id assigned at injection.
    pub exec_id: u64,
}

/// Tunables of the runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Local processing delay per rule firing.
    pub rule_proc_delay: SimTime,
    /// Wire size of a `sig` broadcast message.
    pub sig_bytes: usize,
    /// Extra payload bytes charged per event message beyond the tuple's
    /// serialized size (models framing/headers).
    pub header_bytes: usize,
    /// Keep delivered event and output tuples resolvable so provenance
    /// queries can fetch their contents: every input event by `vid` and
    /// by `evid` at its input node, every output by `vid` at its node, and
    /// — only when the recorder's queries read them
    /// ([`ProvRecorder::retains_intermediates`]) — every intermediate
    /// event by `vid` at the node that handled it. Retained tuples stay
    /// out of the join tables ([`Database::retain`]). Disable for
    /// storage/bandwidth measurement runs at very large scale: nothing is
    /// retained, and queries then cannot resolve leaf contents.
    pub retain_tuples: bool,
    /// Keep an [`OutputRecord`] per derived output. Disable for very
    /// large measurement runs; [`RunMetrics::outputs`] still counts.
    pub record_outputs: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            rule_proc_delay: SimTime::from_micros(10),
            sig_bytes: 24,
            header_bytes: 28,
            retain_tuples: true,
            record_outputs: true,
        }
    }
}

/// Headline counters of one run, aggregated across every node — the
/// unified facade the benchmark harness reads instead of poking at the
/// simulator, recorder and runtime separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMetrics {
    /// Output tuples derived.
    pub outputs: u64,
    /// Rules fired across all nodes.
    pub rules_fired: u64,
    /// Messages dropped by loss injection.
    pub dropped_messages: u64,
    /// Total bytes on the wire.
    pub total_traffic_bytes: u64,
    /// Total provenance storage across all nodes, bytes.
    pub total_storage_bytes: usize,
    /// Join probes served by a secondary index.
    pub index_hits: u64,
    /// Join probes that fell back to a table scan.
    pub index_misses: u64,
}

/// The runtime's metric handles, registered once in
/// [`Runtime::attach_telemetry`].
struct EngineMetrics {
    sigs_received: PerNode<Counter>,
    index_hits: PerNode<Counter>,
    index_misses: PerNode<Counter>,
    rules_fired: PerNode<Counter>,
}

impl EngineMetrics {
    fn register(t: &TelemetryHandle, nodes: usize) -> EngineMetrics {
        use dpc_telemetry::counters::{INDEX_HITS, INDEX_MISSES};
        EngineMetrics {
            sigs_received: t.node_counters("engine.sigs_received", nodes),
            index_hits: t.node_counters(INDEX_HITS, nodes),
            index_misses: t.node_counters(INDEX_MISSES, nodes),
            rules_fired: t.node_counters("engine.rules_fired", nodes),
        }
    }
}

/// The engine runtime: one DELP deployed on every node of a network.
pub struct Runtime<R> {
    delp: Delp,
    /// Rules compiled once at construction (see [`crate::plan`]); shared
    /// by all nodes.
    plans: PlanSet,
    sim: Sim<Msg>,
    dbs: Vec<Database>,
    /// Input events materialized at their injection node, keyed by `evid`
    /// (the paper: "the tagged evid is used to retrieve the event tuple
    /// materialized at n").
    events: Vec<HashMap<EvId, Tuple>>,
    /// The recorder's [`ProvRecorder::retains_intermediates`], read once
    /// at construction.
    retain_intermediates: bool,
    fns: FnRegistry,
    recorder: R,
    outputs: Vec<OutputRecord>,
    next_exec_id: u64,
    config: RuntimeConfig,
    /// Relations of interest beyond the output relations (Section 3.2):
    /// intermediate head relations whose tuples also get concrete
    /// provenance associations.
    interest: std::collections::BTreeSet<String>,
    outputs_count: u64,
    rules_fired: u64,
    /// Index probe totals over every compiled-plan evaluation.
    eval_stats: EvalStats,
    telemetry: Option<TelemetryHandle>,
    handles: Option<EngineMetrics>,
}

impl<R: ProvRecorder> Runtime<R> {
    /// Deploy `delp` on `net` with the given provenance recorder.
    ///
    /// Every rule is compiled to a [`RulePlan`](crate::plan::RulePlan)
    /// and every plan is audited against the static join-key analysis
    /// ([`PlanSet::audit`]) before the runtime is returned. A rule with no
    /// event atom, or one whose constraint or assignment reads a variable
    /// that no earlier atom or assignment binds, is an `Err`.
    pub fn new(delp: Delp, net: Network, recorder: R) -> Result<Runtime<R>> {
        let plans = PlanSet::compile(&delp)?;
        plans.audit()?;
        let n = net.node_count();
        Ok(Runtime {
            delp,
            plans,
            sim: Sim::new(net),
            dbs: (0..n).map(|_| Database::new()).collect(),
            events: (0..n).map(|_| HashMap::new()).collect(),
            retain_intermediates: recorder.retains_intermediates(),
            fns: FnRegistry::new(),
            recorder,
            outputs: Vec::new(),
            next_exec_id: 0,
            config: RuntimeConfig::default(),
            interest: std::collections::BTreeSet::new(),
            outputs_count: 0,
            rules_fired: 0,
            eval_stats: EvalStats::default(),
            telemetry: None,
            handles: None,
        })
    }

    /// Replace the runtime configuration. Set it before the first event.
    pub fn set_config(&mut self, config: RuntimeConfig) {
        self.config = config;
    }

    /// Declare the *relations of interest* (Section 3.2): head relations
    /// whose tuples — even intermediate ones — get concrete provenance
    /// associations (a stage 3 call per derived tuple), so administrators
    /// can query them directly instead of replaying. Output relations are
    /// always of interest and need not be listed. A name that is not a
    /// head relation of the program is an `Err`. Replaces any earlier
    /// declaration.
    pub fn set_interest<I, S>(&mut self, rels: I) -> Result<()>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let heads: std::collections::BTreeSet<&str> = self
            .delp
            .rules()
            .iter()
            .map(|r| r.head.rel.as_str())
            .collect();
        let mut set = std::collections::BTreeSet::new();
        for r in rels {
            let r: String = r.into();
            if !heads.contains(r.as_str()) {
                return Err(Error::Schema(format!(
                    "`{r}` is not a derived (head) relation of this program"
                )));
            }
            set.insert(r);
        }
        self.interest = set;
        Ok(())
    }

    /// Mutable access to the function registry, to register user-defined
    /// functions (e.g. `f_isSubDomain`, or the self-hosted provenance
    /// functions) before the first event.
    pub fn fns_mut(&mut self) -> &mut FnRegistry {
        &mut self.fns
    }

    /// Attach a telemetry sink: wired into the simulator (traffic
    /// counters, queueing delays), the runtime (rule/join/output counters,
    /// spans, periodic snapshots on the simulated clock) and the recorder
    /// (table sizes, `htequi` hit rates).
    pub fn attach_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.sim.set_telemetry(telemetry.clone());
        self.recorder.attach_telemetry(telemetry.clone());
        telemetry
            .counter(dpc_telemetry::counters::PLANS_COMPILED)
            .add(self.plans.len() as u64);
        self.handles = Some(EngineMetrics::register(&telemetry, self.dbs.len()));
        self.telemetry = Some(telemetry);
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&TelemetryHandle> {
        self.telemetry.as_ref()
    }

    /// Headline counters of the run so far, aggregated across nodes:
    /// outputs, rules fired, drops, wire traffic and provenance storage.
    pub fn metrics(&self) -> RunMetrics {
        let total_storage_bytes = (0..self.dbs.len())
            .map(|i| self.recorder.storage_at(NodeId(i as u32)))
            .sum();
        RunMetrics {
            outputs: self.outputs_count,
            rules_fired: self.rules_fired,
            dropped_messages: self.sim.dropped(),
            total_traffic_bytes: self.sim.stats().total_bytes(),
            total_storage_bytes,
            index_hits: self.eval_stats.index_hits,
            index_misses: self.eval_stats.index_misses,
        }
    }

    /// The function registry (shared by all nodes).
    pub fn fns(&self) -> &FnRegistry {
        &self.fns
    }

    /// The deployed program.
    pub fn delp(&self) -> &Delp {
        &self.delp
    }

    /// The program's rules, compiled once when the runtime was built.
    pub fn plans(&self) -> &PlanSet {
        &self.plans
    }

    /// The network.
    pub fn net(&self) -> &Network {
        self.sim.net()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        self.sim.stats()
    }

    /// Clear traffic statistics (e.g. after topology setup).
    pub fn clear_stats(&mut self) {
        self.sim.stats_mut().clear();
    }

    /// The provenance recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Mutable access to the recorder (e.g. to extract tables after a run).
    pub fn recorder_mut(&mut self) -> &mut R {
        &mut self.recorder
    }

    /// One node's database.
    pub fn db(&self, node: NodeId) -> &Database {
        &self.dbs[node.index()]
    }

    /// Outputs derived so far, in derivation order (empty when
    /// `record_outputs` is disabled).
    pub fn outputs(&self) -> &[OutputRecord] {
        &self.outputs
    }

    /// Resolve an input event by `evid` at the node where it entered.
    pub fn event_by_evid(&self, node: NodeId, evid: &EvId) -> Option<&Tuple> {
        self.events.get(node.index())?.get(evid)
    }

    /// Resolve a tuple by content hash at `node`: any base tuple ever
    /// installed there, and the event and output tuples retained there
    /// under [`RuntimeConfig::retain_tuples`] — input events and outputs
    /// always, intermediate events only for recorders whose queries read
    /// them ([`ProvRecorder::retains_intermediates`]).
    pub fn tuple_by_vid(&self, node: NodeId, vid: &Vid) -> Option<&Tuple> {
        self.dbs.get(node.index())?.by_vid(vid)
    }

    /// Inject deterministic message loss on the directed link
    /// `src -> dst`: every `every`-th message on it is dropped. Failure
    /// injection for tests; provenance of delivered tuples is unaffected
    /// (dropped executions simply never derive their outputs).
    ///
    /// # Panics
    ///
    /// If `every` is zero, or if `src` and `dst` are not neighbours: loss
    /// applies to one link, so a pair with no direct link would drop
    /// nothing.
    pub fn inject_loss(&mut self, src: NodeId, dst: NodeId, every: u64) {
        self.sim.inject_loss(src, dst, every);
    }

    /// Install a base tuple during setup, without network traffic or `sig`
    /// broadcast. The tuple's location specifier picks the node.
    pub fn install(&mut self, tuple: Tuple) -> Result<()> {
        let node = tuple.loc()?;
        self.check_node(node)?;
        self.recorder.on_base_install(node, &tuple);
        self.dbs[node.index()].insert(tuple);
        Ok(())
    }

    fn check_node(&self, node: NodeId) -> Result<()> {
        if node.index() >= self.dbs.len() {
            return Err(Error::Network(format!("unknown node {node}")));
        }
        Ok(())
    }

    /// Inject an input event at simulated time `at` (clamped to now). The
    /// event enters at its own location specifier. Returns the execution
    /// id.
    pub fn inject_at(&mut self, tuple: Tuple, at: SimTime) -> Result<u64> {
        if tuple.rel() != self.delp.input_event() {
            return Err(Error::Schema(format!(
                "expected input event relation `{}`, got `{}`",
                self.delp.input_event(),
                tuple.rel()
            )));
        }
        let node = tuple.loc()?;
        self.check_node(node)?;
        let exec_id = self.next_exec_id;
        self.next_exec_id += 1;
        let meta = ProvMeta::input(exec_id, tuple.evid());
        // One trace per execution: the root "exec" span opens when the
        // event enters and closes when its output derives (stage 3) — or,
        // if the execution dies to message loss, when the run drains.
        let at = at.max(self.sim.now());
        let root = self.telemetry.as_ref().map_or(SpanContext::NONE, |t| {
            let s = t.span_root("exec", Some(node.0), at.as_nanos());
            t.span_attr(s, "exec_id", || AttrValue::UInt(exec_id));
            s
        });
        self.sim
            .schedule_at_traced(node, at, Msg::Event { tuple, meta }, root);
        Ok(exec_id)
    }

    /// Inject an input event now.
    pub fn inject(&mut self, tuple: Tuple) -> Result<u64> {
        self.inject_at(tuple, self.sim.now())
    }

    /// Schedule an insertion into a slow-changing table at `at`. Applying
    /// it broadcasts `sig` to every node (Section 5.5).
    pub fn update_slow_at(&mut self, tuple: Tuple, at: SimTime) -> Result<()> {
        let node = tuple.loc()?;
        self.check_node(node)?;
        if !self.delp.is_slow(tuple.rel()) {
            return Err(Error::Schema(format!(
                "`{}` is not a slow-changing relation",
                tuple.rel()
            )));
        }
        self.sim.schedule_at(node, at, Msg::SlowInsert { tuple });
        Ok(())
    }

    /// Schedule a deletion from a slow-changing table at `at`. Deletion
    /// does not affect stored provenance (provenance is monotone) and does
    /// not broadcast.
    pub fn delete_slow_at(&mut self, tuple: Tuple, at: SimTime) -> Result<()> {
        let node = tuple.loc()?;
        self.check_node(node)?;
        self.sim.schedule_at(node, at, Msg::SlowDelete { tuple });
        Ok(())
    }

    /// Run until no work remains. Any spans left open by lost messages
    /// (an execution whose output never derived) are closed at the final
    /// simulated time so every sampled trace stays a well-formed tree.
    pub fn run(&mut self) -> Result<()> {
        while let Some(d) = self.sim.pop() {
            self.handle(d.at, d.dst, d.msg, d.span)?;
        }
        if let Some(t) = &self.telemetry {
            t.close_open_spans(self.sim.now().as_nanos());
        }
        // The series always end at the drained terminal state (idempotent
        // if the drain coincides with the last periodic tick).
        self.sample_timeseries_now();
        Ok(())
    }

    /// Run until simulated `deadline` (events after it stay queued).
    pub fn run_until(&mut self, deadline: SimTime) -> Result<()> {
        while let Some(d) = self.sim.pop_until(deadline) {
            self.handle(d.at, d.dst, d.msg, d.span)?;
        }
        Ok(())
    }

    /// Record the engine layer's time-series gauges at sampling stamp
    /// `stamp`: pending delta-queue depth (the event heap drives rule
    /// re-evaluation), per-node table cardinality and estimated bytes,
    /// then the network layer's series ([`Sim::record_timeseries`]).
    /// Registry gauges (recorder table sizes, equivalence-table state)
    /// and derived ratios (`engine.index_hit_ratio`,
    /// `recorder.htequi_hit_rate`) were already copied by the sampler
    /// itself when the tick fired.
    fn record_timeseries(&self, stamp: u64) {
        let Some(t) = &self.telemetry else {
            return;
        };
        let mut entries: Vec<(String, f64)> = vec![(
            "engine.pending_deltas".to_string(),
            self.sim.pending() as f64,
        )];
        for (i, db) in self.dbs.iter().enumerate() {
            entries.push((format!("engine.table_rows#{i}"), db.len() as f64));
            entries.push((
                format!("engine.table_bytes#{i}"),
                db.estimated_bytes() as f64,
            ));
        }
        t.ts_record_all(stamp, entries);
        self.sim.record_timeseries(stamp);
    }

    /// Force a time-series sample at the current simulated time,
    /// regardless of the cadence (no-op when sampling is disabled). Called
    /// automatically at the end of [`Runtime::run`]; bench drivers that
    /// stop at a deadline via [`Runtime::run_until`] can call it to close
    /// out the series.
    pub fn sample_timeseries_now(&self) {
        if let Some(t) = &self.telemetry {
            if let Some(stamp) = t.sample_now(self.sim.now().as_nanos()) {
                self.record_timeseries(stamp);
            }
        }
    }

    fn handle(&mut self, at: SimTime, node: NodeId, msg: Msg, ctx: SpanContext) -> Result<()> {
        if let Some(stamp) = self.telemetry.as_ref().and_then(|t| t.tick(at.as_nanos())) {
            self.record_timeseries(stamp);
        }
        match msg {
            Msg::Event { tuple, meta } => self.handle_event(at, node, tuple, meta, ctx),
            Msg::SlowInsert { tuple } => {
                self.recorder.on_base_install(node, &tuple);
                self.dbs[node.index()].insert(tuple);
                // The Section 5.5 control broadcast is its own trace: the
                // root spans the fan-out until the last sig arrives.
                let root = self.telemetry.as_ref().map_or(SpanContext::NONE, |t| {
                    t.span_root("engine.sig", Some(node.0), at.as_nanos())
                });
                // Broadcast sig to every node, including self.
                let mut last = at;
                for m in self.sim.net().nodes().collect::<Vec<_>>() {
                    if m == node {
                        self.sim
                            .schedule_local_traced(node, SimTime::ZERO, Msg::Sig, root);
                    } else {
                        let arrival = self.sim.send_routed_traced(
                            node,
                            m,
                            self.config.sig_bytes,
                            Msg::Sig,
                            root,
                        )?;
                        last = last.max(arrival);
                    }
                }
                if let Some(t) = &self.telemetry {
                    t.span_end(root, last.as_nanos());
                }
                Ok(())
            }
            Msg::SlowDelete { tuple } => {
                self.dbs[node.index()].remove(&tuple);
                Ok(())
            }
            Msg::Sig => {
                if let Some(m) = &self.handles {
                    m.sigs_received.at(node.0).add(1);
                }
                if let Some(t) = &self.telemetry {
                    // The htequi clear is instantaneous in the model; the
                    // span still marks where equivalence state reset.
                    let s = t.span_child("engine.sig", Some(node.0), ctx, at.as_nanos());
                    t.span_end(s, at.as_nanos());
                }
                self.recorder.on_sig(node);
                Ok(())
            }
        }
    }

    fn handle_event(
        &mut self,
        at: SimTime,
        node: NodeId,
        tuple: Tuple,
        mut meta: ProvMeta,
        ctx: SpanContext,
    ) -> Result<()> {
        // Output tuples complete an execution (stage 3).
        if self.delp.is_output(tuple.rel()) {
            self.outputs_count += 1;
            if let Some(t) = &self.telemetry {
                // Stage 3 closes the execution's root span.
                let s = t.span_child("engine.event", Some(node.0), ctx, at.as_nanos());
                t.span_attr(s, "output", || AttrValue::Str(tuple.rel().to_string()));
                t.span_end(s, at.as_nanos());
                t.span_end_root(ctx.trace, at.as_nanos());
            }
            self.recorder.on_output(node, &tuple, &meta);
            if self.config.retain_tuples {
                self.dbs[node.index()].retain(tuple.clone());
            }
            if self.config.record_outputs {
                self.outputs.push(OutputRecord {
                    at,
                    node,
                    tuple,
                    evid: meta.evid.expect("every execution carries its evid"),
                    exec_id: meta.exec_id,
                });
            }
            return Ok(());
        }

        // The per-arrival "engine.event" span covers stage 1 (if this is
        // a fresh input) and stage 2; it ends when the last derived tuple
        // reaches its destination, so its duration is the time this hop
        // added to the execution.
        let ev = self.telemetry.as_ref().map_or(SpanContext::NONE, |t| {
            let s = t.span_child("engine.event", Some(node.0), ctx, at.as_nanos());
            t.span_attr(s, "rel", || AttrValue::Str(tuple.rel().to_string()));
            s
        });

        // Stage 1 for fresh inputs: equivalence-keys checking and event
        // materialization.
        if meta.stage == Stage::Input {
            self.recorder.on_input(node, &tuple, &mut meta);
            if let Some(t) = &self.telemetry {
                // Schemes that run the equivalence check set `eq_hash`;
                // `exist_flag` then distinguishes a compressed re-execution
                // (hit) from a fresh class (miss).
                if meta.eq_hash.is_some() {
                    let eq = t.span_child("engine.eq", Some(node.0), ev, at.as_nanos());
                    t.span_attr(eq, "hit", || AttrValue::UInt(meta.exist_flag as u64));
                    t.span_end(eq, at.as_nanos());
                }
            }
            meta.stage = Stage::Derived;
            if self.config.retain_tuples {
                self.events[node.index()].insert(tuple.evid(), tuple.clone());
                self.dbs[node.index()].retain(tuple.clone());
            }
        } else if self.config.retain_tuples && self.retain_intermediates {
            // ExSPAN's query fetches intermediate tuple contents at the
            // node each one visited; the other schemes re-derive them.
            self.dbs[node.index()].retain(tuple.clone());
        }

        // Stage 2: fire every rule whose event relation matches. The loop
        // borrows `self.plans` alongside the other fields it uses, so
        // nothing is cloned per event.
        let plans = self.plans.plans_for_event(tuple.rel());
        let mut ev_end = at;
        for plan in plans {
            let rule = plan.rule();
            let mut stats = EvalStats::default();
            let firings = plan.eval(&tuple, &mut self.dbs[node.index()], &self.fns, &mut stats)?;
            self.eval_stats.merge(stats);
            if let Some(m) = &self.handles {
                if stats.index_hits > 0 {
                    m.index_hits.at(node.0).add(stats.index_hits);
                }
                if stats.index_misses > 0 {
                    m.index_misses.at(node.0).add(stats.index_misses);
                }
            }
            for firing in firings {
                self.rules_fired += 1;
                if let Some(m) = &self.handles {
                    m.rules_fired.at(node.0).add(1);
                }
                // The "engine.rule" span runs from the firing to the
                // derived tuple's arrival at its destination, so per-rule
                // histograms measure real end-to-end rule latency.
                let rule_span = self.telemetry.as_ref().map_or(SpanContext::NONE, |t| {
                    let s = t.span_child("engine.rule", Some(node.0), ev, at.as_nanos());
                    t.span_attr(s, "rule", || AttrValue::Str(rule.label.clone()));
                    s
                });
                let out_meta =
                    self.recorder
                        .on_rule(node, rule, &tuple, &firing.slow, &firing.head, &meta);
                let dst = firing.head.loc()?;
                self.check_node(dst)?;
                // Relations of interest beyond outputs: associate the
                // derived tuple with its (partial) provenance chain now,
                // exactly like stage 3 does for outputs.
                if self.interest.contains(firing.head.rel())
                    && !self.delp.is_output(firing.head.rel())
                {
                    self.recorder.on_output(dst, &firing.head, &out_meta);
                }
                let bytes =
                    firing.head.storage_size() + out_meta.wire_bytes + self.config.header_bytes;
                let msg = Msg::Event {
                    tuple: firing.head,
                    meta: out_meta,
                };
                let arrival = if dst == node {
                    self.sim.schedule_local_traced(
                        node,
                        self.config.rule_proc_delay,
                        msg,
                        rule_span,
                    )
                } else {
                    self.sim
                        .send_routed_traced(node, dst, bytes, msg, rule_span)?
                };
                if let Some(t) = &self.telemetry {
                    t.span_end(rule_span, arrival.as_nanos());
                }
                ev_end = ev_end.max(arrival);
            }
        }
        if let Some(t) = &self.telemetry {
            t.span_end(ev, ev_end.as_nanos());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::NoopRecorder;
    use dpc_common::Value;
    use dpc_ndlog::programs;
    use dpc_netsim::{topo, Link};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn packet(loc: u32, src: u32, dst: u32, payload: &str) -> Tuple {
        Tuple::new(
            "packet",
            vec![
                Value::Addr(n(loc)),
                Value::Addr(n(src)),
                Value::Addr(n(dst)),
                Value::str(payload),
            ],
        )
    }

    fn route(loc: u32, dst: u32, next: u32) -> Tuple {
        Tuple::new(
            "route",
            vec![
                Value::Addr(n(loc)),
                Value::Addr(n(dst)),
                Value::Addr(n(next)),
            ],
        )
    }

    /// The paper's Figure 2 deployment: 3 nodes in a line, routes at n0
    /// and n1 towards n2 (paper numbering n1,n2,n3 maps to n0,n1,n2).
    fn figure2_runtime() -> Runtime<NoopRecorder> {
        let net = topo::line(3, Link::STUB_STUB);
        let mut rt = Runtime::new(programs::packet_forwarding(), net, NoopRecorder).unwrap();
        rt.install(route(0, 2, 1)).unwrap();
        rt.install(route(1, 2, 2)).unwrap();
        rt
    }

    #[test]
    fn packet_traverses_and_derives_recv() {
        let mut rt = figure2_runtime();
        rt.inject(packet(0, 0, 2, "data")).unwrap();
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 1);
        let out = &rt.outputs()[0];
        assert_eq!(out.node, n(2));
        assert_eq!(
            out.tuple,
            Tuple::new(
                "recv",
                vec![
                    Value::Addr(n(2)),
                    Value::Addr(n(0)),
                    Value::Addr(n(2)),
                    Value::str("data"),
                ],
            )
        );
        // r1 fired at n0 and n1, r2 at n2.
        assert_eq!(rt.metrics().rules_fired, 3);
    }

    #[test]
    fn event_is_materialized_at_input_node() {
        let mut rt = figure2_runtime();
        let pkt = packet(0, 0, 2, "data");
        let evid = pkt.evid();
        rt.inject(pkt.clone()).unwrap();
        rt.run().unwrap();
        assert_eq!(rt.event_by_evid(n(0), &evid), Some(&pkt));
        assert_eq!(rt.event_by_evid(n(1), &evid), None);
        assert_eq!(rt.tuple_by_vid(n(0), &pkt.vid()), Some(&pkt));
    }

    #[test]
    fn event_tuples_are_never_joined() {
        // A relaxed program may name a derived event relation as a
        // condition (r3 joins `a`). Event tuples are transient, so r3 sees
        // only base `a` rows — none here — whatever is retained.
        let p = dpc_ndlog::parse_program(
            "r1 a(@X, Y) :- e(@X, Y).\n\
             r2 b(@X, Y) :- a(@X, Y).\n\
             r3 c(@X, Y) :- e(@X, Y), a(@X, Y).",
        )
        .unwrap();
        let delp = Delp::new_relaxed(p).unwrap();
        for retain_tuples in [true, false] {
            let mut rt =
                Runtime::new(delp.clone(), topo::line(1, Link::STUB_STUB), NoopRecorder).unwrap();
            rt.set_config(RuntimeConfig {
                retain_tuples,
                ..RuntimeConfig::default()
            });
            let ev = Tuple::new("e", vec![Value::Addr(n(0)), Value::Int(7)]);
            for _ in 0..2 {
                rt.inject(ev.clone()).unwrap();
                rt.run().unwrap();
            }
            assert_eq!(rt.metrics().rules_fired, 4, "r1 and r2 twice, r3 never");
            assert_eq!(rt.db(n(0)).count("a"), 0);
        }
    }

    #[test]
    fn packet_without_route_goes_nowhere() {
        let net = topo::line(3, Link::STUB_STUB);
        let mut rt = Runtime::new(programs::packet_forwarding(), net, NoopRecorder).unwrap();
        rt.inject(packet(0, 0, 2, "data")).unwrap();
        rt.run().unwrap();
        assert!(rt.outputs().is_empty());
        assert_eq!(rt.metrics().rules_fired, 0);
    }

    #[test]
    fn injection_validates_relation_and_node() {
        let mut rt = figure2_runtime();
        let wrong = Tuple::new("recv", vec![Value::Addr(n(0))]);
        assert!(rt.inject(wrong).is_err());
        let bad_node = packet(9, 0, 2, "x");
        assert!(rt.inject(bad_node).is_err());
    }

    #[test]
    fn traffic_accounts_tuple_and_header() {
        let mut rt = figure2_runtime();
        rt.inject(packet(0, 0, 2, "data")).unwrap();
        rt.run().unwrap();
        // Two network transfers (n0->n1, n1->n2); each carries the packet
        // tuple plus header plus 1 meta byte (Noop leaves wire_bytes = 1).
        let pkt_bytes = packet(1, 0, 2, "data").storage_size();
        let expected = 2 * (pkt_bytes + 1 + RuntimeConfig::default().header_bytes);
        assert_eq!(rt.stats().total_bytes(), expected as u64);
    }

    #[test]
    fn run_with_timeseries_samples_all_layers() {
        let t = dpc_telemetry::Telemetry::handle();
        t.set_timeseries(SimTime::from_millis(1).as_nanos(), 256);
        let net = topo::line(3, Link::STUB_STUB);
        let mut rt = Runtime::new(programs::packet_forwarding(), net, NoopRecorder).unwrap();
        rt.attach_telemetry(t.clone());
        rt.install(route(0, 2, 1)).unwrap();
        rt.install(route(1, 2, 2)).unwrap();
        for i in 0..5 {
            rt.inject_at(
                packet(0, 0, 2, &format!("p{i}")),
                SimTime::from_millis(i * 5),
            )
            .unwrap();
        }
        rt.run().unwrap();
        // Engine-layer series exist for every node and end at the drained
        // terminal state: all tables quiescent, heap empty.
        for i in 0..3 {
            let rows = t.timeseries_get(&format!("engine.table_rows#{i}")).unwrap();
            assert!(!rows.is_empty());
            let bytes = t
                .timeseries_get(&format!("engine.table_bytes#{i}"))
                .unwrap();
            assert_eq!(rows.len(), bytes.len());
        }
        let pending = t.timeseries_get("engine.pending_deltas").unwrap();
        assert_eq!(pending.last().unwrap().1, 0.0, "drained at the end");
        let heap = t.timeseries_get("net.heap_depth").unwrap();
        assert_eq!(heap.last().unwrap().1, 0.0);
        // Network-layer cumulative bytes are monotone non-decreasing.
        let bytes = t.timeseries_get("net.bytes_total").unwrap();
        assert!(bytes.windows(2).all(|w| w[0].1 <= w[1].1), "{bytes:?}");
        assert!(bytes.last().unwrap().1 > 0.0);
        // The index hit ratio rides along as a derived gauge (compiled
        // plans are on by default and this workload probes indexes).
        assert!(t.timeseries_get("engine.index_hit_ratio").is_some());
        // Stamps are aligned to the cadence except possibly the final
        // forced sample.
        let every = SimTime::from_millis(1).as_nanos();
        for (i, &(stamp, _)) in pending.iter().enumerate() {
            if i + 1 < pending.len() {
                assert_eq!(stamp % every, 0, "aligned stamp {stamp}");
            }
        }
    }

    #[test]
    fn multiple_packets_all_arrive() {
        let mut rt = figure2_runtime();
        for i in 0..10 {
            rt.inject_at(
                packet(0, 0, 2, &format!("p{i}")),
                SimTime::from_millis(i * 10),
            )
            .unwrap();
        }
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 10);
        // Outputs arrive in injection order (FIFO links, same path).
        let payloads: Vec<_> = rt
            .outputs()
            .iter()
            .map(|o| o.tuple.args()[3].as_str().unwrap().to_string())
            .collect();
        assert_eq!(
            payloads,
            (0..10).map(|i| format!("p{i}")).collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut rt = figure2_runtime();
        rt.inject_at(packet(0, 0, 2, "late"), SimTime::from_secs(10))
            .unwrap();
        rt.run_until(SimTime::from_secs(1)).unwrap();
        assert!(rt.outputs().is_empty());
        assert_eq!(rt.now(), SimTime::from_secs(1));
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 1);
    }

    #[test]
    fn slow_update_reroutes_subsequent_packets() {
        // Figure 7: a new node is used as intermediate hop after a route
        // change. Topology: 0-1-2 line plus 0-3-2 alternative.
        let mut net = topo::line(3, Link::STUB_STUB);
        let n3 = net.add_node();
        net.add_link(n(0), n3, Link::STUB_STUB).unwrap();
        net.add_link(n3, n(2), Link::STUB_STUB).unwrap();
        let mut rt = Runtime::new(programs::packet_forwarding(), net, NoopRecorder).unwrap();
        rt.install(route(0, 2, 1)).unwrap();
        rt.install(route(1, 2, 2)).unwrap();
        rt.install(route(3, 2, 2)).unwrap();

        rt.inject_at(packet(0, 0, 2, "before"), SimTime::ZERO)
            .unwrap();
        // At t=1s: delete route via n1, insert route via n3.
        rt.delete_slow_at(route(0, 2, 1), SimTime::from_secs(1))
            .unwrap();
        rt.update_slow_at(route(0, 2, 3), SimTime::from_secs(1))
            .unwrap();
        rt.inject_at(packet(0, 0, 2, "after"), SimTime::from_secs(2))
            .unwrap();
        rt.run().unwrap();

        assert_eq!(rt.outputs().len(), 2);
        // Both arrive at n2 regardless of path.
        assert!(rt.outputs().iter().all(|o| o.node == n(2)));
        // The new path must have carried the second packet via n3.
        assert!(rt.stats().link_bytes(n(0), n3) > 0);
    }

    #[test]
    fn registry_tracks_execution_per_node() {
        let t = dpc_telemetry::Telemetry::handle();
        let mut rt = figure2_runtime();
        rt.attach_telemetry(t.clone());
        rt.inject(packet(0, 0, 2, "data")).unwrap();
        rt.inject(packet(0, 0, 2, "url")).unwrap();
        rt.run().unwrap();
        // r1 fires twice at n0 and at n1, r2 twice at n2.
        assert_eq!(
            t.counter_by_node("engine.rules_fired"),
            [(0, 2), (1, 2), (2, 2)].into()
        );
        assert_eq!(rt.outputs().len(), 2);
        assert!(rt.outputs().iter().all(|o| o.node == n(2)));
        assert!(t.counter_by_node("engine.sigs_received").is_empty());
        // A slow update delivers a sig everywhere.
        rt.update_slow_at(route(1, 0, 0), rt.now()).unwrap();
        rt.run().unwrap();
        assert_eq!(
            t.counter_by_node("engine.sigs_received"),
            [(0, 1), (1, 1), (2, 1)].into()
        );
    }

    #[test]
    fn lossy_link_drops_executions_cleanly() {
        let mut rt = figure2_runtime();
        // Drop every 2nd message on the n1 -> n2 hop.
        rt.inject_loss(n(1), n(2), 2);
        for i in 0..6 {
            rt.inject(packet(0, 0, 2, &format!("p{i}"))).unwrap();
        }
        rt.run().unwrap();
        // Half the packets die on the lossy hop; the rest arrive intact.
        assert_eq!(rt.outputs().len(), 3);
        assert_eq!(rt.metrics().dropped_messages, 3);
        let payloads: Vec<_> = rt
            .outputs()
            .iter()
            .map(|o| o.tuple.args()[3].as_str().unwrap().to_string())
            .collect();
        assert_eq!(payloads, vec!["p0", "p2", "p4"]);
    }

    #[test]
    fn new_rejects_rules_that_read_unbound_variables() {
        // `Q` is never bound (the analyzer's W0202, a warning); `Y` is
        // bound only by the join after the constraint, which the analyzer
        // does not flag. `Delp` accepts both; the runtime must return an
        // `Err`, not panic.
        for src in [
            "r1 out(@X, Y) :- e(@X, Z), Y := Q + 1.",
            "r1 out(@X, Y) :- e(@X), Y > 1, s(@X, Y).",
        ] {
            let p = dpc_ndlog::parse_program(src).unwrap();
            let delp = Delp::new_relaxed(p).unwrap();
            let err = Runtime::new(delp, topo::line(2, Link::STUB_STUB), NoopRecorder)
                .err()
                .expect("construction must fail");
            assert!(
                err.to_string()
                    .contains("before any atom or assignment binds it"),
                "{err}"
            );
        }
    }

    #[test]
    fn new_audits_every_plan() {
        // A successful construction implies every plan passed the audit;
        // make sure the audit also runs standalone over the built plans.
        let rt = Runtime::new(
            programs::dns_resolution(),
            topo::line(2, Link::STUB_STUB),
            NoopRecorder,
        )
        .unwrap();
        assert_eq!(rt.plans.audit().unwrap(), rt.plans.len());
    }

    #[test]
    fn traced_execution_forms_single_root_tree() {
        let t = dpc_telemetry::Telemetry::handle();
        t.set_span_sampling(1);
        let mut rt = figure2_runtime();
        rt.attach_telemetry(t.clone());
        rt.inject(packet(0, 0, 2, "data")).unwrap();
        rt.run().unwrap();
        let spans = t.spans();
        assert_eq!(t.open_span_count(), 0);
        let by_trace = dpc_telemetry::spans_by_trace(&spans);
        assert_eq!(by_trace.len(), 1, "one execution, one trace");
        let tree = by_trace.values().next().unwrap();
        dpc_telemetry::check_well_formed(tree).unwrap();
        let root = tree.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(root.name, "exec");
        // The root closes exactly when the output derived.
        assert_eq!(root.end_ns, Some(rt.outputs()[0].at.as_nanos()));
        // All three layers appear: engine events, rule firings, net hops.
        for name in ["engine.event", "engine.rule", "net.hop"] {
            assert!(tree.iter().any(|s| s.name == name), "missing {name}");
        }
        // The critical-path breakdown covers the root duration exactly.
        let bd = dpc_telemetry::critical_path(tree).unwrap();
        assert_eq!(bd.total(), root.duration_ns());
        assert!(bd.network > 0);
    }

    #[test]
    fn loss_does_not_orphan_or_leak_spans() {
        let t = dpc_telemetry::Telemetry::handle();
        t.set_span_sampling(1);
        let mut rt = figure2_runtime();
        rt.attach_telemetry(t.clone());
        // Drop every 2nd message on the n1 -> n2 hop: half the executions
        // never derive their output.
        rt.inject_loss(n(1), n(2), 2);
        for i in 0..6 {
            rt.inject(packet(0, 0, 2, &format!("p{i}"))).unwrap();
        }
        rt.run().unwrap();
        assert_eq!(rt.outputs().len(), 3);
        // Every sampled trace — including the lost executions' — is a
        // well-formed tree whose root closed.
        assert_eq!(t.open_span_count(), 0);
        let spans = t.spans();
        let by_trace = dpc_telemetry::spans_by_trace(&spans);
        assert_eq!(by_trace.len(), 6);
        for (trace, tree) in by_trace {
            dpc_telemetry::check_well_formed(&tree)
                .unwrap_or_else(|e| panic!("trace {trace}: {e}"));
        }
        // Dropped hops are visible as such.
        let dropped_hops = spans
            .iter()
            .filter(|s| s.name == "net.hop" && s.attr("dropped").is_some())
            .count();
        assert_eq!(dropped_hops, 3);
    }

    #[test]
    fn sampling_traces_subset_of_executions() {
        let t = dpc_telemetry::Telemetry::handle();
        t.set_span_sampling(3);
        let mut rt = figure2_runtime();
        rt.attach_telemetry(t.clone());
        for i in 0..6 {
            rt.inject(packet(0, 0, 2, &format!("p{i}"))).unwrap();
        }
        rt.run().unwrap();
        // Head sampling: executions 0 and 3 are traced.
        let spans = t.spans();
        let by_trace = dpc_telemetry::spans_by_trace(&spans);
        assert_eq!(by_trace.len(), 2);
        for tree in by_trace.values() {
            dpc_telemetry::check_well_formed(tree).unwrap();
        }
    }

    #[test]
    fn sig_broadcast_is_traced() {
        let t = dpc_telemetry::Telemetry::handle();
        t.set_span_sampling(1);
        let mut rt = figure2_runtime();
        rt.attach_telemetry(t.clone());
        rt.update_slow_at(route(1, 0, 0), SimTime::ZERO).unwrap();
        rt.run().unwrap();
        let spans = t.spans();
        let root = spans
            .iter()
            .find(|s| s.name == "engine.sig" && s.parent.is_none())
            .unwrap();
        // Three receivers record an "engine.sig" child; the root spans
        // until the last arrival.
        let receipts = spans
            .iter()
            .filter(|s| s.name == "engine.sig" && s.parent.is_some())
            .count();
        assert_eq!(receipts, 3);
        let last = spans.iter().filter_map(|s| s.end_ns).max().unwrap();
        assert_eq!(root.end_ns, Some(last));
        for tree in dpc_telemetry::spans_by_trace(&spans).values() {
            dpc_telemetry::check_well_formed(tree).unwrap();
        }
    }

    #[test]
    fn update_slow_rejects_non_slow_relations() {
        let mut rt = figure2_runtime();
        assert!(rt
            .update_slow_at(packet(0, 0, 2, "x"), SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn dns_resolution_end_to_end() {
        // Host n0, root n1, "com" server n2, "hello.com" server n3.
        let net = topo::line(4, Link::STUB_STUB);
        let mut rt = Runtime::new(programs::dns_resolution(), net, NoopRecorder).unwrap();
        rt.fns_mut().register("f_isSubDomain", |args| {
            let (Some(dm), Some(url)) = (args[0].as_str(), args[1].as_str()) else {
                return Err(Error::Eval("f_isSubDomain expects strings".into()));
            };
            Ok(Value::Bool(
                url == dm || url.ends_with(&format!(".{dm}")) || url.ends_with(dm),
            ))
        });
        rt.install(Tuple::new(
            "rootServer",
            vec![Value::Addr(n(0)), Value::Addr(n(1))],
        ))
        .unwrap();
        rt.install(Tuple::new(
            "nameServer",
            vec![Value::Addr(n(1)), Value::str("com"), Value::Addr(n(2))],
        ))
        .unwrap();
        rt.install(Tuple::new(
            "nameServer",
            vec![
                Value::Addr(n(2)),
                Value::str("hello.com"),
                Value::Addr(n(3)),
            ],
        ))
        .unwrap();
        rt.install(Tuple::new(
            "addressRecord",
            vec![
                Value::Addr(n(3)),
                Value::str("www.hello.com"),
                Value::str("10.0.0.7"),
            ],
        ))
        .unwrap();

        rt.inject(Tuple::new(
            "url",
            vec![
                Value::Addr(n(0)),
                Value::str("www.hello.com"),
                Value::Int(1),
            ],
        ))
        .unwrap();
        rt.run().unwrap();

        assert_eq!(rt.outputs().len(), 1);
        let reply = &rt.outputs()[0].tuple;
        assert_eq!(reply.rel(), "reply");
        assert_eq!(reply.loc().unwrap(), n(0));
        assert_eq!(reply.args()[2], Value::str("10.0.0.7"));
    }
}
