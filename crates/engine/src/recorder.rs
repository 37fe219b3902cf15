//! The provenance recorder interface.
//!
//! The runtime is scheme-agnostic: at each of the three stages of the
//! online compression scheme (Section 5.3) it calls into a [`ProvRecorder`]
//! and forwards the returned [`ProvMeta`] with the tuple on the wire. The
//! concrete ExSPAN / Basic / Advanced recorders live in `dpc-core`.

use dpc_common::{EqKeyHash, EvId, NodeId, Rid, Tuple};
use dpc_ndlog::Rule;
use dpc_telemetry::TelemetryHandle;

/// Where in its execution a traveling tuple is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// A freshly injected input event that has not yet passed stage 1
    /// (equivalence-keys checking).
    Input,
    /// A derived tuple in flight between rules.
    Derived,
}

/// Metadata tagged along with a tuple as it travels through an execution.
///
/// This is the paper's "existFlag ... along with some auxiliary data (e.g.
/// hash value of the event tuple)" (Section 6.1.2). Its wire size is
/// scheme-dependent and accounted into bandwidth via [`ProvMeta::wire_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvMeta {
    /// Input vs derived.
    pub stage: Stage,
    /// Unique id of this execution (assigned at injection; used by the
    /// ground-truth recorder and for debugging, not shipped on the wire).
    pub exec_id: u64,
    /// `existFlag`: `true` when the event's equivalence keys were seen
    /// before, instructing nodes to skip provenance maintenance.
    pub exist_flag: bool,
    /// Hash of the input event peculiar to this execution.
    pub evid: Option<EvId>,
    /// Hash of the input event's equivalence-key valuation.
    pub eq_hash: Option<EqKeyHash>,
    /// Reference to the most recent rule-execution provenance node: the
    /// `(NLoc, NRID)` chain head for Basic/Advanced, the deriving rule
    /// execution for ExSPAN.
    pub prev: Option<(NodeId, Rid)>,
    /// Bytes this metadata occupies on the wire (scheme-dependent).
    pub wire_bytes: usize,
}

impl ProvMeta {
    /// Metadata for a freshly injected input event.
    pub fn input(exec_id: u64, evid: EvId) -> ProvMeta {
        ProvMeta {
            stage: Stage::Input,
            exec_id,
            exist_flag: false,
            evid: Some(evid),
            eq_hash: None,
            prev: None,
            wire_bytes: 1,
        }
    }
}

/// Hooks invoked by the runtime as a DELP executes.
///
/// A recorder is one logical object, but its state is partitioned per node
/// (every method takes the node at which the action happens); the
/// simulation is single-threaded, so this models a distributed deployment
/// without actual sharing.
pub trait ProvRecorder {
    /// Stage 1 — a fresh input event arrived at `node`. The recorder may
    /// set `exist_flag`, `eq_hash` and `wire_bytes` on `meta`.
    fn on_input(&mut self, node: NodeId, event: &Tuple, meta: &mut ProvMeta);

    /// Stage 2 — `rule` fired at `node`, consuming `event` and `slow`,
    /// deriving `head`. Returns the metadata to ship with `head`.
    fn on_rule(
        &mut self,
        node: NodeId,
        rule: &Rule,
        event: &Tuple,
        slow: &[Tuple],
        head: &Tuple,
        meta: &ProvMeta,
    ) -> ProvMeta;

    /// Stage 3 — `output` (a tuple of an output relation) arrived at
    /// `node`, completing the execution described by `meta`.
    fn on_output(&mut self, node: NodeId, output: &Tuple, meta: &ProvMeta);

    /// A slow-changing base tuple was installed at `node` (initial setup or
    /// a runtime update).
    fn on_base_install(&mut self, node: NodeId, tuple: &Tuple) {
        let _ = (node, tuple);
    }

    /// A `sig` control broadcast (Section 5.5) reached `node` following an
    /// insertion into some slow-changing table.
    fn on_sig(&mut self, node: NodeId) {
        let _ = node;
    }

    /// Serialized size of the provenance tables held at `node` — the
    /// paper's storage metric.
    fn storage_at(&self, node: NodeId) -> usize;

    /// Attach a telemetry sink. Recorders that report metrics (table row
    /// counts, `htequi` hit rates, dedup savings) keep the handle; the
    /// default implementation ignores it.
    fn attach_telemetry(&mut self, telemetry: TelemetryHandle) {
        let _ = telemetry;
    }

    /// Does this scheme's query path read the contents of intermediate
    /// event tuples (those derived by one rule and consumed by the next)?
    ///
    /// The runtime reads this once, when it is built. Input events and
    /// outputs are always retained (see `RuntimeConfig::retain_tuples`);
    /// intermediates are retained only when this returns `true`. Schemes
    /// whose queries re-derive intermediates from the input event and the
    /// slow tuples (Basic and Advanced, Section 4 and Appendix E) return
    /// `false`. The default is `true`, so a recorder that does not say
    /// keeps every tuple resolvable.
    fn retains_intermediates(&self) -> bool {
        true
    }
}

// Boxed recorders forward every hook, so scheme-generic code (e.g. the
// `Scheme::recorder` factory) can drive a `Runtime<Box<dyn ProvRecorder>>`.
impl ProvRecorder for Box<dyn ProvRecorder> {
    fn on_input(&mut self, node: NodeId, event: &Tuple, meta: &mut ProvMeta) {
        (**self).on_input(node, event, meta)
    }

    fn on_rule(
        &mut self,
        node: NodeId,
        rule: &Rule,
        event: &Tuple,
        slow: &[Tuple],
        head: &Tuple,
        meta: &ProvMeta,
    ) -> ProvMeta {
        (**self).on_rule(node, rule, event, slow, head, meta)
    }

    fn on_output(&mut self, node: NodeId, output: &Tuple, meta: &ProvMeta) {
        (**self).on_output(node, output, meta)
    }

    fn on_base_install(&mut self, node: NodeId, tuple: &Tuple) {
        (**self).on_base_install(node, tuple)
    }

    fn on_sig(&mut self, node: NodeId) {
        (**self).on_sig(node)
    }

    fn storage_at(&self, node: NodeId) -> usize {
        (**self).storage_at(node)
    }

    fn attach_telemetry(&mut self, telemetry: TelemetryHandle) {
        (**self).attach_telemetry(telemetry)
    }

    fn retains_intermediates(&self) -> bool {
        (**self).retains_intermediates()
    }
}

/// A recorder that maintains no provenance at all (the uninstrumented
/// baseline for network-overhead comparisons).
#[derive(Debug, Clone, Default)]
pub struct NoopRecorder;

impl ProvRecorder for NoopRecorder {
    fn on_input(&mut self, _node: NodeId, _event: &Tuple, _meta: &mut ProvMeta) {}

    fn on_rule(
        &mut self,
        _node: NodeId,
        _rule: &Rule,
        _event: &Tuple,
        _slow: &[Tuple],
        _head: &Tuple,
        meta: &ProvMeta,
    ) -> ProvMeta {
        let mut m = meta.clone();
        m.stage = Stage::Derived;
        m
    }

    fn on_output(&mut self, _node: NodeId, _output: &Tuple, _meta: &ProvMeta) {}

    fn storage_at(&self, _node: NodeId) -> usize {
        0
    }

    fn retains_intermediates(&self) -> bool {
        false
    }
}

/// Runs a primary recorder and a shadow observer side by side.
///
/// The primary drives the metadata (its `existFlag`, chain references and
/// wire sizes are what ship); the shadow sees the same callbacks *after*
/// the primary and must not influence execution. Used to run the
/// ground-truth tree recorder next to a scheme under test.
#[derive(Debug)]
pub struct TeeRecorder<A, B> {
    /// The recorder whose metadata drives execution.
    pub primary: A,
    /// The passive observer.
    pub shadow: B,
}

impl<A, B> TeeRecorder<A, B> {
    /// Combine `primary` and `shadow`.
    pub fn new(primary: A, shadow: B) -> Self {
        TeeRecorder { primary, shadow }
    }
}

impl<A: ProvRecorder, B: ProvRecorder> ProvRecorder for TeeRecorder<A, B> {
    fn on_input(&mut self, node: NodeId, event: &Tuple, meta: &mut ProvMeta) {
        self.primary.on_input(node, event, meta);
        let mut shadow_meta = meta.clone();
        self.shadow.on_input(node, event, &mut shadow_meta);
    }

    fn on_rule(
        &mut self,
        node: NodeId,
        rule: &Rule,
        event: &Tuple,
        slow: &[Tuple],
        head: &Tuple,
        meta: &ProvMeta,
    ) -> ProvMeta {
        let out = self.primary.on_rule(node, rule, event, slow, head, meta);
        let _ = self.shadow.on_rule(node, rule, event, slow, head, meta);
        out
    }

    fn on_output(&mut self, node: NodeId, output: &Tuple, meta: &ProvMeta) {
        self.primary.on_output(node, output, meta);
        self.shadow.on_output(node, output, meta);
    }

    fn on_base_install(&mut self, node: NodeId, tuple: &Tuple) {
        self.primary.on_base_install(node, tuple);
        self.shadow.on_base_install(node, tuple);
    }

    fn on_sig(&mut self, node: NodeId) {
        self.primary.on_sig(node);
        self.shadow.on_sig(node);
    }

    fn storage_at(&self, node: NodeId) -> usize {
        // The primary's tables are the measured artifact.
        self.primary.storage_at(node)
    }

    fn attach_telemetry(&mut self, telemetry: TelemetryHandle) {
        // Only the primary reports: the shadow observes silently, exactly
        // like it stays out of storage accounting.
        self.primary.attach_telemetry(telemetry);
    }

    fn retains_intermediates(&self) -> bool {
        // Either side may be queried, so keep what either one reads.
        self.primary.retains_intermediates() || self.shadow.retains_intermediates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_common::Value;

    #[test]
    fn input_meta_defaults() {
        let ev = Tuple::new("e", vec![Value::Addr(NodeId(0))]);
        let m = ProvMeta::input(7, ev.evid());
        assert_eq!(m.stage, Stage::Input);
        assert_eq!(m.exec_id, 7);
        assert!(!m.exist_flag);
        assert_eq!(m.evid, Some(ev.evid()));
        assert!(m.prev.is_none());
        assert_eq!(m.wire_bytes, 1);
    }

    #[test]
    fn noop_recorder_passes_meta_through() {
        let mut r = NoopRecorder;
        let ev = Tuple::new("e", vec![Value::Addr(NodeId(0))]);
        let mut meta = ProvMeta::input(0, ev.evid());
        r.on_input(NodeId(0), &ev, &mut meta);
        assert_eq!(meta.stage, Stage::Input);
        let rule = dpc_ndlog::parse_program("r1 out(@X) :- e(@X).")
            .unwrap()
            .rules[0]
            .clone();
        let head = Tuple::new("out", vec![Value::Addr(NodeId(0))]);
        let m2 = r.on_rule(NodeId(0), &rule, &ev, &[], &head, &meta);
        assert_eq!(m2.stage, Stage::Derived);
        assert_eq!(m2.evid, meta.evid);
        assert_eq!(r.storage_at(NodeId(0)), 0);
    }

    #[test]
    fn tee_reports_primary_storage() {
        let tee = TeeRecorder::new(NoopRecorder, NoopRecorder);
        assert_eq!(tee.storage_at(NodeId(0)), 0);
    }

    /// A recorder that keeps the trait's default retention.
    struct Undeclared;

    impl ProvRecorder for Undeclared {
        fn on_input(&mut self, _node: NodeId, _event: &Tuple, _meta: &mut ProvMeta) {}

        fn on_rule(
            &mut self,
            _node: NodeId,
            _rule: &Rule,
            _event: &Tuple,
            _slow: &[Tuple],
            _head: &Tuple,
            meta: &ProvMeta,
        ) -> ProvMeta {
            meta.clone()
        }

        fn on_output(&mut self, _node: NodeId, _output: &Tuple, _meta: &ProvMeta) {}

        fn storage_at(&self, _node: NodeId) -> usize {
            0
        }
    }

    #[test]
    fn retention_defaults_to_everything_and_combines_by_or() {
        assert!(Undeclared.retains_intermediates());
        assert!(!NoopRecorder.retains_intermediates());
        let boxed: Box<dyn ProvRecorder> = Box::new(NoopRecorder);
        assert!(!boxed.retains_intermediates());
        assert!(!TeeRecorder::new(NoopRecorder, NoopRecorder).retains_intermediates());
        assert!(TeeRecorder::new(NoopRecorder, Undeclared).retains_intermediates());
        assert!(TeeRecorder::new(Undeclared, NoopRecorder).retains_intermediates());
    }
}
