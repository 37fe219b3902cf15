#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Telemetry/observability subsystem for the provenance-compression
//! workspace.
//!
//! Every layer of the system — the network simulator, the declarative
//! networking engine, and the provenance recorders — reports into one
//! shared [`Telemetry`] registry:
//!
//! * **Counters, gauges and histograms**, keyed by `(metric, node)`.
//!   Counters are monotone `u64`s (rules fired, messages sent, `htequi`
//!   hits); gauges are last-write-wins values (provenance table rows);
//!   histograms aggregate distributions (per-link queueing delay) into
//!   count / sum / min / max.
//! * **Metric handles.** A layer registers its metrics once, when
//!   telemetry attaches ([`Telemetry::counter`], [`Telemetry::node_gauges`],
//!   …), and writes through the returned [`Counter`] / [`Gauge`] /
//!   [`Hist`] handles — per-node metrics as a [`PerNode`] array indexed
//!   by node id. A handle owns its atomic cell, so a write takes no lock
//!   and hashes no string. Readers ([`Telemetry::counter_total`],
//!   snapshots, the sampler) find cells by name under the registry lock;
//!   a registered cell that was never written stays out of their output.
//! * **Periodic snapshots on the simulated clock**: the engine calls
//!   [`Telemetry::tick`] as simulated time advances; each due tick freezes
//!   the registry into a [`Snapshot`] that serializes to one JSON line
//!   (hand-rolled serializer, no serde — the build is dependency-free).
//!   The next due instant lives in an atomic, so a tick with nothing due
//!   costs one load.
//!
//! The registry is shared as a [`TelemetryHandle`] (`Arc<Telemetry>`,
//! `Send + Sync`), cheap to clone into the simulator, the runtime and
//! the recorders. All time is plain `u64` nanoseconds of simulated time:
//! this crate sits below `dpc-netsim`, so it cannot (and need not) name
//! `SimTime`.
//!
//! On top of the flat metrics sits **causal span tracing** (the [`span`]
//! module): head-sampled trees of timed spans whose [`SpanContext`] rides
//! every simulated message, with critical-path analysis and a Chrome
//! trace-event export ([`chrome`]) loadable in Perfetto. Span attributes
//! are built lazily, only for sampled spans.

pub mod chrome;
pub mod json;
pub mod span;
pub mod timeseries;

/// Well-known counter names emitted by the engine's evaluation hot path.
///
/// Counters are dynamically keyed strings; this module pins down the names
/// shared between the emitting side (`dpc-engine`) and the reading side
/// (`dpc-bench` run records, CI assertions) so they cannot drift apart.
pub mod counters {
    /// Join probes served by a secondary `(relation, positions)` hash
    /// index during compiled-plan evaluation.
    pub const INDEX_HITS: &str = "engine.index_hits";
    /// Join probes that fell back to a full table scan (no bound
    /// positions, or a degenerate index).
    pub const INDEX_MISSES: &str = "engine.index_misses";
    /// Rule plans compiled at runtime construction; emitted once when
    /// telemetry attaches.
    pub const PLANS_COMPILED: &str = "engine.plans_compiled";
}

pub use chrome::chrome_trace;
pub use json::Json;
pub use span::{
    check_well_formed, critical_path, duration_histograms, spans_by_trace, AttrValue, Breakdown,
    Category, SpanContext, SpanId, SpanRecord, TraceId,
};
pub use timeseries::DEFAULT_SERIES_CAPACITY;

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use timeseries::Sampler;

/// A cloneable shared reference to a [`Telemetry`] registry.
pub type TelemetryHandle = Arc<Telemetry>;

// Metric cells are independent statistics: no write publishes any other
// data, so every access is `Relaxed`.
const RELAXED: Ordering = Ordering::Relaxed;

/// A counter's value, or the bits of a gauge's `i64`. `written` keeps a
/// registered cell that was never written out of every reader's output.
#[derive(Debug, Default)]
struct Cell {
    value: AtomicU64,
    written: AtomicBool,
}

#[derive(Debug)]
struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistCell {
    /// The aggregate so far, or `None` if nothing was observed.
    fn load(&self) -> Option<Histogram> {
        let count = self.count.load(RELAXED);
        (count > 0).then(|| Histogram {
            count,
            sum: self.sum.load(RELAXED),
            min: self.min.load(RELAXED),
            max: self.max.load(RELAXED),
        })
    }
}

/// Write handle for one counter cell (see [`Telemetry::counter`] and
/// [`Telemetry::node_counters`]).
#[derive(Debug)]
pub struct Counter(Arc<Cell>);

impl Counter {
    /// Add `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.value.fetch_add(delta, RELAXED);
        self.0.written.store(true, RELAXED);
    }
}

/// Write handle for one gauge cell (see [`Telemetry::node_gauges`]).
#[derive(Debug)]
pub struct Gauge(Arc<Cell>);

impl Gauge {
    /// Set the gauge to `value`.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.value.store(value as u64, RELAXED);
        self.0.written.store(true, RELAXED);
    }
}

/// Write handle for one histogram cell (see [`Telemetry::hist`]).
#[derive(Debug)]
pub struct Hist(Arc<HistCell>);

impl Hist {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let c = &self.0;
        c.count.fetch_add(1, RELAXED);
        if c.sum.fetch_add(v, RELAXED).checked_add(v).is_none() {
            // The sum saturates instead of wrapping.
            c.sum.store(u64::MAX, RELAXED);
        }
        // Most observations move neither extreme: test before writing.
        if v < c.min.load(RELAXED) {
            c.min.fetch_min(v, RELAXED);
        }
        if v > c.max.load(RELAXED) {
            c.max.fetch_max(v, RELAXED);
        }
    }
}

/// One handle per node, indexed by node id (see
/// [`Telemetry::node_counters`]). Node ids past the count registered at
/// attach time are out of range and panic.
#[derive(Debug)]
pub struct PerNode<H>(Box<[H]>);

impl<H> PerNode<H> {
    /// The handle for `node`.
    #[inline]
    pub fn at(&self, node: u32) -> &H {
        &self.0[node as usize]
    }
}

/// Aggregated distribution: count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl Histogram {
    fn observe(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Metric key: a static metric name plus an optional node scope.
type Key = (&'static str, Option<u32>);

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<Key, Arc<Cell>>,
    gauges: BTreeMap<Key, Arc<Cell>>,
    hists: BTreeMap<Key, Arc<HistCell>>,
    snapshot_every_nanos: Option<u64>,
    next_snapshot_nanos: u64,
    snapshots: Vec<Snapshot>,
    /// All recorded spans, open ones with `end_ns == None`.
    spans: Vec<SpanRecord>,
    /// Span id -> index into `spans` (open and closed).
    span_index: HashMap<u64, usize>,
    /// Next span/trace id (ids are nonzero; 0 is `SpanContext::NONE`).
    next_span_id: u64,
    /// Head-based sampling period for root spans: 0 = tracing off,
    /// 1 = every root, N = one in N.
    span_sample_every: u64,
    /// Root spans requested so far (sampled or not), drives sampling.
    span_roots_seen: u64,
    /// Hard cap on stored spans: new *roots* are unsampled once reached
    /// (children of already-sampled traces still record, so no sampled
    /// tree is ever truncated mid-way).
    span_cap: usize,
    /// Time-series sampling state (see [`Telemetry::set_timeseries`]);
    /// `None` until enabled.
    sampler: Option<Sampler>,
}

/// A frozen copy of the metrics registry at one simulated instant.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Simulated time of the snapshot, nanoseconds.
    pub at_nanos: u64,
    /// Counter values.
    pub counters: BTreeMap<(String, Option<u32>), u64>,
    /// Gauge values.
    pub gauges: BTreeMap<(String, Option<u32>), i64>,
    /// Derived ratio gauges computed from the counters at freeze time
    /// (e.g. `engine.index_hit_ratio`); only present when their
    /// denominators are nonzero.
    pub derived: BTreeMap<String, f64>,
    /// Histogram aggregates.
    pub hists: BTreeMap<(String, Option<u32>), Histogram>,
}

impl Snapshot {
    /// Serialize as one JSON object (one line of JSON-lines output).
    ///
    /// Schema: `{"type":"snapshot","t_ns":N,"counters":{...},"gauges":
    /// {...},"derived":{...},"hists":{...}}` where each metric map is
    /// keyed `name` for global metrics and `name#<node>` for per-node
    /// ones, in sorted order; `derived` holds the freeze-time ratio
    /// gauges; histogram values are
    /// `{"count":N,"sum":N,"min":N,"max":N,"mean":F}`.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|((name, node), v)| (render_key(name, *node), Json::UInt(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|((name, node), v)| (render_key(name, *node), Json::Int(*v)))
                .collect(),
        );
        let hists = Json::Obj(
            self.hists
                .iter()
                .map(|((name, node), h)| {
                    (
                        render_key(name, *node),
                        Json::obj([
                            ("count", Json::UInt(h.count)),
                            ("sum", Json::UInt(h.sum)),
                            ("min", Json::UInt(h.min)),
                            ("max", Json::UInt(h.max)),
                            ("mean", Json::Float(h.mean())),
                        ]),
                    )
                })
                .collect(),
        );
        let derived = Json::Obj(
            self.derived
                .iter()
                .map(|(name, v)| (name.clone(), Json::Float(*v)))
                .collect(),
        );
        Json::obj([
            ("type", Json::Str("snapshot".into())),
            ("t_ns", Json::UInt(self.at_nanos)),
            ("counters", counters),
            ("gauges", gauges),
            ("derived", derived),
            ("hists", hists),
        ])
    }
}

fn render_key(name: &str, node: Option<u32>) -> String {
    match node {
        None => name.to_string(),
        Some(n) => format!("{name}#{n}"),
    }
}

/// The shared metrics registry + snapshotter + span store.
///
/// Construct one per run, wrap it in a [`TelemetryHandle`] with
/// [`Telemetry::handle`] (or `Arc::new`), and hand clones to the
/// simulator, runtime and recorder.
#[derive(Debug)]
pub struct Telemetry {
    inner: Mutex<Inner>,
    /// Earliest simulated instant at which a snapshot or a time-series
    /// sample is due (`u64::MAX` when neither is scheduled): the
    /// lock-free fast path of [`Telemetry::tick`]. Written only under
    /// the `inner` lock; `Relaxed` because it publishes no other data
    /// (a due tick re-checks both schedules under the lock).
    next_due: AtomicU64,
    /// Lock-free fast path for [`Telemetry::span_root`]: mirrors
    /// `span_sample_every > 0`. Unsampled contexts make every child-span
    /// call a no-op without consulting the registry at all.
    spans_enabled: AtomicBool,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

/// Default hard cap on stored spans (see `Inner::span_cap`).
pub const DEFAULT_SPAN_CAP: usize = 1 << 20;

/// The cell registered under `(name, node)`, created on first use: every
/// registration of the same key shares one cell.
fn cell<C: Default>(
    map: &mut BTreeMap<Key, Arc<C>>,
    name: &'static str,
    node: Option<u32>,
) -> Arc<C> {
    Arc::clone(map.entry((name, node)).or_default())
}

fn per_node<H>(
    map: &mut BTreeMap<Key, Arc<Cell>>,
    name: &'static str,
    nodes: usize,
    handle: fn(Arc<Cell>) -> H,
) -> PerNode<H> {
    PerNode(
        (0..nodes as u32)
            .map(|n| handle(cell(map, name, Some(n))))
            .collect(),
    )
}

impl Telemetry {
    /// A registry with span tracing disabled and no periodic
    /// snapshotting (snapshots only on explicit [`Telemetry::snapshot`]).
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Mutex::new(Inner {
                next_span_id: 1,
                span_cap: DEFAULT_SPAN_CAP,
                ..Inner::default()
            }),
            next_due: AtomicU64::new(u64::MAX),
            spans_enabled: AtomicBool::new(false),
        }
    }

    /// A shareable handle to a fresh registry.
    pub fn handle() -> TelemetryHandle {
        Arc::new(Telemetry::new())
    }

    /// Enable periodic snapshotting every `every_nanos` of simulated
    /// time (drives [`Telemetry::tick`]).
    pub fn set_snapshot_every_nanos(&self, every_nanos: u64) {
        let mut g = self.lock();
        g.snapshot_every_nanos = Some(every_nanos.max(1));
        g.next_snapshot_nanos = every_nanos.max(1);
        self.publish_next_due(&g);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    // --- Metric registration -------------------------------------------

    /// Register the global counter `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(cell(&mut self.lock().counters, name, None))
    }

    /// Register counter `name` on each of nodes `0..nodes`.
    pub fn node_counters(&self, name: &'static str, nodes: usize) -> PerNode<Counter> {
        per_node(&mut self.lock().counters, name, nodes, Counter)
    }

    /// Register gauge `name` on each of nodes `0..nodes`.
    pub fn node_gauges(&self, name: &'static str, nodes: usize) -> PerNode<Gauge> {
        per_node(&mut self.lock().gauges, name, nodes, Gauge)
    }

    /// Register the global histogram `name`.
    pub fn hist(&self, name: &'static str) -> Hist {
        Hist(cell(&mut self.lock().hists, name, None))
    }

    // --- Metric readers ------------------------------------------------

    /// The current value of counter `name` summed over all node scopes.
    pub fn counter_total(&self, name: &str) -> u64 {
        counter_total(&self.lock().counters, name)
    }

    /// Per-node values of counter `name` (global entries and cells never
    /// written excluded).
    pub fn counter_by_node(&self, name: &str) -> BTreeMap<u32, u64> {
        self.lock()
            .counters
            .iter()
            .filter(|((n, _), c)| *n == name && c.written.load(RELAXED))
            .filter_map(|((_, node), c)| node.map(|nd| (nd, c.value.load(RELAXED))))
            .collect()
    }

    /// Take a snapshot now (at simulated time `at_nanos`), regardless of
    /// the periodic schedule, and return a copy of it.
    pub fn snapshot(&self, at_nanos: u64) -> Snapshot {
        let mut g = self.lock();
        let snap = freeze(&g, at_nanos);
        g.snapshots.push(snap.clone());
        snap
    }

    /// Offer the registry the current simulated time: the single
    /// per-event hook of the engine's loop. When nothing is due this is
    /// one atomic load. Otherwise, under one lock:
    ///
    /// * if periodic snapshotting is on and its tick is due, freeze a
    ///   [`Snapshot`] at `now_nanos` (catch-up is single: one snapshot
    ///   per call even if several periods elapsed — the registry state
    ///   in between is gone anyway);
    /// * if time-series sampling is on and its tick is due, copy every
    ///   registry gauge (keyed `name` / `name#node`) plus the derived
    ///   ratio gauges into the series store at the *aligned* tick stamp
    ///   ([`timeseries::Sampler::due`]) and return that stamp, so callers can record
    ///   their own layer-specific series at the same instant.
    ///
    /// Returns `None` when no sample was taken.
    #[inline]
    pub fn tick(&self, now_nanos: u64) -> Option<u64> {
        if now_nanos < self.next_due.load(RELAXED) {
            return None;
        }
        self.tick_due(now_nanos)
    }

    #[cold]
    fn tick_due(&self, now_nanos: u64) -> Option<u64> {
        let mut g = self.lock();
        if let Some(every) = g.snapshot_every_nanos {
            if now_nanos >= g.next_snapshot_nanos {
                let snap = freeze(&g, now_nanos);
                g.snapshots.push(snap);
                g.next_snapshot_nanos = (now_nanos / every + 1) * every;
            }
        }
        let stamp = g.sampler.as_mut().and_then(|s| s.due(now_nanos));
        if let Some(stamp) = stamp {
            sample_registry(&mut g, stamp);
        }
        self.publish_next_due(&g);
        stamp
    }

    /// Recompute [`Telemetry::next_due`] from the schedules in `g`.
    fn publish_next_due(&self, g: &Inner) {
        let snapshot = match g.snapshot_every_nanos {
            Some(_) => g.next_snapshot_nanos,
            None => u64::MAX,
        };
        let sample = g.sampler.as_ref().map_or(u64::MAX, Sampler::next_nanos);
        self.next_due.store(snapshot.min(sample), RELAXED);
    }

    /// All snapshots taken so far, oldest first.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.lock().snapshots.clone()
    }

    // --- Causal span tracing -------------------------------------------

    /// Enable head-based span sampling: one in `every` root spans is
    /// sampled (1 = all); 0 disables span tracing entirely. The sampling
    /// decision is made once per root and inherited by the whole tree.
    pub fn set_span_sampling(&self, every: u64) {
        let mut g = self.lock();
        g.span_sample_every = every;
        self.spans_enabled.store(every > 0, Ordering::Release);
    }

    /// Start a root span (a new trace). Applies the sampling decision;
    /// an unsampled root returns [`SpanContext::NONE`] and records
    /// nothing. When tracing is disabled this returns on a lock-free
    /// atomic check.
    pub fn span_root(&self, name: &'static str, node: Option<u32>, at_nanos: u64) -> SpanContext {
        if !self.spans_enabled.load(Ordering::Acquire) {
            return SpanContext::NONE;
        }
        let mut g = self.lock();
        if g.span_sample_every == 0 {
            return SpanContext::NONE;
        }
        let seq = g.span_roots_seen;
        g.span_roots_seen += 1;
        if !seq.is_multiple_of(g.span_sample_every) || g.spans.len() >= g.span_cap {
            return SpanContext::NONE;
        }
        let id = g.next_span_id;
        g.next_span_id += 1;
        let ctx = SpanContext {
            trace: TraceId(id),
            span: SpanId(id),
            sampled: true,
        };
        let idx = g.spans.len();
        g.spans.push(SpanRecord {
            trace: ctx.trace,
            id: ctx.span,
            parent: None,
            name,
            node,
            start_ns: at_nanos,
            end_ns: None,
            attrs: Vec::new(),
        });
        g.span_index.insert(id, idx);
        ctx
    }

    /// Start a child span under `parent`. A no-op (returning
    /// [`SpanContext::NONE`]) when the parent is unsampled.
    #[inline]
    pub fn span_child(
        &self,
        name: &'static str,
        node: Option<u32>,
        parent: SpanContext,
        at_nanos: u64,
    ) -> SpanContext {
        if !parent.sampled {
            return SpanContext::NONE;
        }
        self.record_child(name, node, parent, at_nanos)
    }

    fn record_child(
        &self,
        name: &'static str,
        node: Option<u32>,
        parent: SpanContext,
        at_nanos: u64,
    ) -> SpanContext {
        let mut g = self.lock();
        let id = g.next_span_id;
        g.next_span_id += 1;
        let ctx = SpanContext {
            trace: parent.trace,
            span: SpanId(id),
            sampled: true,
        };
        let idx = g.spans.len();
        g.spans.push(SpanRecord {
            trace: parent.trace,
            id: ctx.span,
            parent: Some(parent.span),
            name,
            node,
            start_ns: at_nanos,
            end_ns: None,
            attrs: Vec::new(),
        });
        g.span_index.insert(id, idx);
        ctx
    }

    /// End span `ctx` at `at_nanos`. No-op on unsampled contexts or
    /// already-ended spans.
    #[inline]
    pub fn span_end(&self, ctx: SpanContext, at_nanos: u64) {
        if ctx.sampled {
            self.record_end(ctx, at_nanos);
        }
    }

    fn record_end(&self, ctx: SpanContext, at_nanos: u64) {
        let mut g = self.lock();
        if let Some(&idx) = g.span_index.get(&ctx.span.0) {
            let s = &mut g.spans[idx];
            if s.end_ns.is_none() {
                s.end_ns = Some(at_nanos.max(s.start_ns));
            }
        }
    }

    /// End the (open) root span of `trace` at `at_nanos` — used when the
    /// closer only knows the trace it belongs to, not the root's id
    /// (e.g. the engine closing an execution's root at output
    /// derivation).
    pub fn span_end_root(&self, trace: TraceId, at_nanos: u64) {
        if trace.0 == 0 {
            return;
        }
        let mut g = self.lock();
        // Root spans carry the trace id as their span id by construction.
        if let Some(&idx) = g.span_index.get(&trace.0) {
            let s = &mut g.spans[idx];
            if s.parent.is_none() && s.end_ns.is_none() {
                s.end_ns = Some(at_nanos.max(s.start_ns));
            }
        }
    }

    /// Attach a typed attribute to span `ctx` (open or closed).
    pub fn span_attr(
        &self,
        ctx: SpanContext,
        key: &'static str,
        value: impl FnOnce() -> AttrValue,
    ) {
        if !ctx.sampled {
            return;
        }
        let mut g = self.lock();
        if let Some(&idx) = g.span_index.get(&ctx.span.0) {
            g.spans[idx].attrs.push((key, value()));
        }
    }

    /// Close every still-open span at `at_nanos`. Called when a run
    /// drains: executions killed by message loss can never close their
    /// own roots, and a trace with an open span is not well-formed.
    pub fn close_open_spans(&self, at_nanos: u64) {
        let mut g = self.lock();
        for s in g.spans.iter_mut() {
            if s.end_ns.is_none() {
                s.end_ns = Some(at_nanos.max(s.start_ns));
            }
        }
    }

    /// Number of spans still open.
    pub fn open_span_count(&self) -> usize {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.end_ns.is_none())
            .count()
    }

    /// A copy of every recorded span, in creation order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Serialize every snapshot as JSON-lines (one object per line).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in self.lock().snapshots.iter() {
            out.push_str(&s.to_json().to_string());
            out.push('\n');
        }
        out
    }

    // --- Time-series sampling ------------------------------------------

    /// Enable time-series sampling every `every_nanos` of simulated time
    /// with per-series point capacity `capacity` (see
    /// [`timeseries::Sampler`]). Replaces any existing sampler and its
    /// accumulated series.
    pub fn set_timeseries(&self, every_nanos: u64, capacity: usize) {
        let mut g = self.lock();
        g.sampler = Some(Sampler::new(every_nanos, capacity));
        self.publish_next_due(&g);
    }

    /// Sample the registry unconditionally at `now_nanos` (used for the
    /// final drain sample at the end of a run, so the series always end
    /// at the terminal state). Idempotent when it coincides with the last
    /// periodic tick: an equal-timestamp push replaces the last value.
    /// Returns the stamp, or `None` when sampling is disabled.
    pub fn sample_now(&self, now_nanos: u64) -> Option<u64> {
        let mut g = self.lock();
        g.sampler.as_ref()?;
        sample_registry(&mut g, now_nanos);
        Some(now_nanos)
    }

    /// Record a batch of layer-specific samples at `stamp` (no-op when
    /// sampling is disabled). `stamp` should come from
    /// [`Telemetry::tick`] / [`Telemetry::sample_now`] so all series share
    /// timestamps.
    pub fn ts_record_all(&self, stamp: u64, entries: impl IntoIterator<Item = (String, f64)>) {
        let mut g = self.lock();
        if let Some(s) = g.sampler.as_mut() {
            let store = s.store_mut();
            for (key, value) in entries {
                store.record(&key, stamp, value);
            }
        }
    }

    /// A copy of every recorded series as `(key, points)`, sorted by key.
    pub fn timeseries(&self) -> Vec<(String, Vec<(u64, f64)>)> {
        match self.lock().sampler.as_ref() {
            Some(s) => s
                .store()
                .iter()
                .map(|(k, series)| (k.to_string(), series.points().to_vec()))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The points of the series named `key`, if recorded.
    pub fn timeseries_get(&self, key: &str) -> Option<Vec<(u64, f64)>> {
        self.lock()
            .sampler
            .as_ref()?
            .store()
            .get(key)
            .map(|s| s.points().to_vec())
    }

    /// Serialize every series as JSON-lines (see
    /// [`timeseries::SeriesStore::to_json_lines`]); empty when sampling
    /// is disabled.
    pub fn timeseries_json_lines(&self) -> String {
        match self.lock().sampler.as_ref() {
            Some(s) => s.store().to_json_lines(),
            None => String::new(),
        }
    }

    /// Serialize every series as CSV (see
    /// [`timeseries::SeriesStore::to_csv`]); empty when sampling is
    /// disabled.
    pub fn timeseries_csv(&self) -> String {
        match self.lock().sampler.as_ref() {
            Some(s) => s.store().to_csv(),
            None => String::new(),
        }
    }
}

/// Copy every written registry gauge plus the derived ratio gauges into
/// the sampler's store at `stamp`. Caller has checked the sampler exists.
fn sample_registry(g: &mut Inner, stamp: u64) {
    let gauges: Vec<(String, f64)> = written(&g.gauges)
        .map(|((n, nd), v)| (render_key(n, nd), v as i64 as f64))
        .collect();
    let derived = derived_from_counters(&g.counters);
    let Some(sampler) = g.sampler.as_mut() else {
        return;
    };
    let store = sampler.store_mut();
    for (key, v) in gauges {
        store.record(&key, stamp, v);
    }
    for (key, v) in derived {
        store.record(&key, stamp, v);
    }
}

/// The cells of `map` that were ever written, with their values.
fn written(map: &BTreeMap<Key, Arc<Cell>>) -> impl Iterator<Item = (Key, u64)> + '_ {
    map.iter()
        .filter(|(_, c)| c.written.load(RELAXED))
        .map(|(&k, c)| (k, c.value.load(RELAXED)))
}

fn freeze(g: &Inner, at_nanos: u64) -> Snapshot {
    let owned = |(n, nd): Key| (n.to_string(), nd);
    Snapshot {
        at_nanos,
        counters: written(&g.counters).map(|(k, v)| (owned(k), v)).collect(),
        gauges: written(&g.gauges)
            .map(|(k, v)| (owned(k), v as i64))
            .collect(),
        derived: derived_from_counters(&g.counters),
        hists: g
            .hists
            .iter()
            .filter_map(|(&k, c)| Some((owned(k), c.load()?)))
            .collect(),
    }
}

/// Counter `name` summed over all node scopes (unwritten cells are 0).
fn counter_total(counters: &BTreeMap<Key, Arc<Cell>>, name: &str) -> u64 {
    counters
        .iter()
        .filter(|((n, _), _)| *n == name)
        .map(|(_, c)| c.value.load(RELAXED))
        .sum()
}

/// Ratio gauges derived from raw hit/miss counter pairs, summed over all
/// node scopes. A ratio is present only when its denominator is nonzero,
/// so consumers can distinguish "no index activity" from "0% hits".
fn derived_from_counters(counters: &BTreeMap<Key, Arc<Cell>>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut ratio = |key: &str, hits_name: &str, misses_name: &str| {
        let hits = counter_total(counters, hits_name);
        let misses = counter_total(counters, misses_name);
        if hits + misses > 0 {
            out.insert(key.to_string(), hits as f64 / (hits + misses) as f64);
        }
    };
    ratio(
        "engine.index_hit_ratio",
        counters::INDEX_HITS,
        counters::INDEX_MISSES,
    );
    ratio(
        "recorder.htequi_hit_rate",
        "recorder.htequi_hits",
        "recorder.htequi_misses",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_key() {
        let t = Telemetry::new();
        let global = t.counter("rules");
        global.add(2);
        global.add(3);
        let per_node = t.node_counters("rules", 2);
        per_node.at(1).add(7);
        assert_eq!(t.counter_total("rules"), 12);
        assert_eq!(t.counter_by_node("rules").get(&1), Some(&7));
        // Node 0 was registered but never written.
        assert!(!t.counter_by_node("rules").contains_key(&0));
    }

    #[test]
    fn registrations_of_one_key_share_a_cell() {
        let t = Telemetry::new();
        let a = t.node_counters("c", 3);
        let b = t.node_counters("c", 2);
        a.at(1).add(1);
        b.at(1).add(2);
        assert_eq!(t.counter_by_node("c"), BTreeMap::from([(1, 3)]));
        let g1 = t.node_gauges("g", 1);
        let g2 = t.node_gauges("g", 1);
        g1.at(0).set(5);
        g2.at(0).set(6);
        assert_eq!(t.snapshot(0).gauges[&("g".to_string(), Some(0))], 6);
    }

    #[test]
    fn unwritten_cells_stay_out_of_snapshots() {
        let t = Telemetry::new();
        let c = t.node_counters("c", 2);
        let g = t.node_gauges("g", 2);
        let _h = t.hist("h");
        assert!(t
            .snapshot(0)
            .to_json()
            .to_string()
            .contains("\"counters\":{},\"gauges\":{}"));
        // A zero write is still a write: the cell appears with value 0.
        c.at(1).add(0);
        g.at(0).set(0);
        let snap = t.snapshot(1);
        assert_eq!(
            snap.counters.keys().collect::<Vec<_>>(),
            [&("c".to_string(), Some(1))]
        );
        assert_eq!(
            snap.gauges.keys().collect::<Vec<_>>(),
            [&("g".to_string(), Some(0))]
        );
        assert!(snap.hists.is_empty());
    }

    #[test]
    fn handles_write_from_many_threads() {
        let t = Telemetry::handle();
        let c = t.node_counters("c", 4);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for n in 0..4 {
                        for _ in 0..1000 {
                            c.at(n).add(1);
                        }
                    }
                });
            }
        });
        assert_eq!(t.counter_total("c"), 16_000);
    }

    #[test]
    fn histogram_aggregates() {
        let t = Telemetry::new();
        let h = t.hist("delay");
        for v in [0u64, 1, 2, 3, 1000] {
            h.observe(v);
        }
        let snap = t.snapshot(5);
        let h = &snap.hists[&("delay".to_string(), None)];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert!((h.mean() - 201.2).abs() < 1e-9);
    }

    #[test]
    fn periodic_snapshots_fire_on_schedule() {
        let t = Telemetry::new();
        t.set_snapshot_every_nanos(1000);
        let c = t.counter("c");
        c.add(1);
        t.tick(500); // not due
        assert!(t.snapshots().is_empty());
        t.tick(1000); // due exactly on the tick
        t.tick(1100); // not due again until 2000
        c.add(1);
        t.tick(2500); // due (single catch-up)
        t.tick(2600); // next due is 3000
        let snaps = t.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].at_nanos, 1000);
        assert_eq!(snaps[0].counters[&("c".to_string(), None)], 1);
        assert_eq!(snaps[1].at_nanos, 2500);
        assert_eq!(snaps[1].counters[&("c".to_string(), None)], 2);
    }

    #[test]
    fn tick_is_inert_until_something_is_scheduled() {
        let t = Telemetry::new();
        assert_eq!(t.next_due.load(RELAXED), u64::MAX);
        assert_eq!(t.tick(u64::MAX - 1), None);
        assert!(t.snapshots().is_empty());
        // Snapshots and samples on different cadences: the fast path
        // wakes at whichever falls due first.
        t.set_snapshot_every_nanos(300);
        t.set_timeseries(1000, 8);
        assert_eq!(t.next_due.load(RELAXED), 300);
        assert_eq!(t.tick(350), None, "a snapshot, but no sample");
        assert_eq!(t.snapshots().len(), 1);
        assert_eq!(t.next_due.load(RELAXED), 600);
        assert_eq!(t.tick(1000), Some(1000));
        assert_eq!(t.snapshots().len(), 2);
        assert_eq!(t.next_due.load(RELAXED), 1200);
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let t = Telemetry::new();
        t.node_counters("b", 3).at(2).add(5);
        t.counter("b").add(1);
        t.node_counters("a", 11).at(10).add(3);
        t.node_gauges("g", 1).at(0).set(-4);
        t.hist("h").observe(8);
        let line = t.snapshot(42).to_json().to_string();
        assert_eq!(
            line,
            "{\"type\":\"snapshot\",\"t_ns\":42,\
             \"counters\":{\"a#10\":3,\"b\":1,\"b#2\":5},\
             \"gauges\":{\"g#0\":-4},\
             \"derived\":{},\
             \"hists\":{\"h\":{\"count\":1,\"sum\":8,\"min\":8,\"max\":8,\"mean\":8}}}"
        );
    }

    #[test]
    fn derived_index_hit_ratio_in_snapshot() {
        let t = Telemetry::new();
        // No index activity: ratio absent, not 0/0.
        assert!(t.snapshot(1).derived.is_empty());
        let hits = t.node_counters(counters::INDEX_HITS, 2);
        hits.at(0).add(3);
        hits.at(1).add(3);
        t.node_counters(counters::INDEX_MISSES, 1).at(0).add(2);
        let snap = t.snapshot(2);
        let ratio = snap.derived["engine.index_hit_ratio"];
        assert!((ratio - 0.75).abs() < 1e-12, "got {ratio}");
        let line = snap.to_json().to_string();
        assert!(
            line.contains("\"derived\":{\"engine.index_hit_ratio\":0.75}"),
            "derived gauge rendered: {line}"
        );
    }

    #[test]
    fn sampler_copies_gauges_and_derived_on_tick() {
        let t = Telemetry::new();
        t.set_timeseries(1000, 64);
        let rows = t.node_gauges("recorder.prov_rows", 4);
        rows.at(3).set(7);
        t.counter(counters::INDEX_HITS).add(1);
        t.counter(counters::INDEX_MISSES).add(1);
        assert_eq!(t.tick(999), None, "not due yet");
        assert_eq!(t.tick(1234), Some(1000), "aligned stamp");
        t.ts_record_all(1000, [("net.heap_depth".to_string(), 5.0)]);
        rows.at(3).set(9);
        assert_eq!(t.tick(2000), Some(2000));
        assert_eq!(
            t.timeseries_get("recorder.prov_rows#3").unwrap(),
            vec![(1000, 7.0), (2000, 9.0)]
        );
        // Registered but never set: no series.
        assert_eq!(t.timeseries_get("recorder.prov_rows#0"), None);
        assert_eq!(
            t.timeseries_get("engine.index_hit_ratio").unwrap(),
            vec![(1000, 0.5), (2000, 0.5)]
        );
        assert_eq!(
            t.timeseries_get("net.heap_depth").unwrap(),
            vec![(1000, 5.0)]
        );
    }

    #[test]
    fn sample_now_is_idempotent_on_tick_boundary() {
        let t = Telemetry::new();
        t.set_timeseries(1000, 64);
        let g = t.node_gauges("g", 1);
        g.at(0).set(1);
        assert_eq!(t.tick(1000), Some(1000));
        g.at(0).set(2);
        // A forced final sample at the same virtual instant replaces the
        // tick's value rather than duplicating the timestamp.
        assert_eq!(t.sample_now(1000), Some(1000));
        assert_eq!(t.timeseries_get("g#0").unwrap(), vec![(1000, 2.0)]);
    }

    #[test]
    fn timeseries_disabled_is_inert() {
        let t = Telemetry::new();
        t.node_gauges("g", 1).at(0).set(1);
        assert_eq!(t.tick(5000), None);
        assert_eq!(t.sample_now(5000), None);
        t.ts_record_all(5000, [("k2".to_string(), 2.0)]);
        assert!(t.timeseries().is_empty());
        assert_eq!(t.timeseries_json_lines(), "");
        assert_eq!(t.timeseries_csv(), "");
    }

    #[test]
    fn json_lines_one_object_per_snapshot() {
        let t = Telemetry::new();
        t.counter("x").add(1);
        t.snapshot(1);
        t.snapshot(2);
        let rendered = t.to_json_lines();
        let lines: Vec<&str> = rendered.trim_end().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"snapshot\",\"t_ns\":1,"));
        assert!(lines[1].starts_with("{\"type\":\"snapshot\",\"t_ns\":2,"));
    }

    #[test]
    fn spans_disabled_by_default() {
        let t = Telemetry::new();
        let ctx = t.span_root("exec", Some(0), 10);
        assert!(!ctx.sampled);
        assert_eq!(ctx, SpanContext::NONE);
        assert!(t.spans().is_empty());
        // Child calls off an unsampled context record nothing either,
        // and never build their attributes.
        let c = t.span_child("net.hop", Some(0), ctx, 20);
        t.span_attr(c, "link", || unreachable!("unsampled attribute built"));
        t.span_end(c, 30);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn span_tree_records_and_closes() {
        let t = Telemetry::new();
        t.set_span_sampling(1);
        let root = t.span_root("exec", Some(0), 100);
        assert!(root.sampled);
        let child = t.span_child("net.hop", Some(1), root, 150);
        t.span_attr(child, "link", || AttrValue::Str("0->1".into()));
        t.span_end(child, 250);
        t.span_end_root(root.trace, 300);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "exec");
        assert_eq!(spans[0].end_ns, Some(300));
        assert_eq!(spans[1].parent, Some(root.span));
        assert_eq!(spans[1].end_ns, Some(250));
        assert_eq!(spans[1].attr("link"), Some(&AttrValue::Str("0->1".into())));
        let groups = spans_by_trace(&spans);
        assert_eq!(groups.len(), 1);
        assert!(check_well_formed(&groups[&root.trace]).is_ok());
    }

    #[test]
    fn head_sampling_takes_one_in_n() {
        let t = Telemetry::new();
        t.set_span_sampling(4);
        let sampled: Vec<bool> = (0..8)
            .map(|i| t.span_root("exec", None, i).sampled)
            .collect();
        assert_eq!(sampled.iter().filter(|&&s| s).count(), 2);
        assert!(sampled[0] && sampled[4]);
    }

    #[test]
    fn close_open_spans_closes_everything() {
        let t = Telemetry::new();
        t.set_span_sampling(1);
        let root = t.span_root("exec", None, 0);
        let _child = t.span_child("net.hop", None, root, 10);
        assert_eq!(t.open_span_count(), 2);
        t.close_open_spans(99);
        assert_eq!(t.open_span_count(), 0);
        assert!(t.spans().iter().all(|s| s.end_ns == Some(99)));
    }

    #[test]
    fn span_end_never_precedes_start() {
        let t = Telemetry::new();
        t.set_span_sampling(1);
        let root = t.span_root("exec", None, 50);
        t.span_end(root, 10); // clock confusion: clamp, don't invert
        assert_eq!(t.spans()[0].end_ns, Some(50));
    }
}
