//! The benchmark's own `ProvRecorder` wrapper for the traced run: it
//! times every hook of the scheme it wraps and logs the run's messages,
//! which the replays in [`crate::replay`] feed back through one layer at
//! a time.

use std::collections::HashMap;
use std::time::Instant;

use dpc_common::{NodeId, StorageSize, Tuple};
use dpc_engine::{ProvMeta, ProvRecorder};
use dpc_ndlog::Rule;
use dpc_telemetry::TelemetryHandle;

/// Calls of one hook and the wall-clock time spent in the wrapped
/// recorder.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookStat {
    /// Calls.
    pub calls: u64,
    /// Nanoseconds inside the wrapped recorder.
    pub nanos: u64,
}

impl HookStat {
    fn record(&mut self, start: Instant) {
        self.calls += 1;
        self.nanos += start.elapsed().as_nanos() as u64;
    }

    /// Seconds inside the wrapped recorder.
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// Per-hook statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hooks {
    /// Stage 1: a fresh input event.
    pub on_input: HookStat,
    /// Stage 2: a rule firing.
    pub on_rule: HookStat,
    /// Stage 3: an output tuple.
    pub on_output: HookStat,
    /// A `sig` broadcast (Section 5.5).
    pub on_sig: HookStat,
}

impl Hooks {
    /// Seconds inside the wrapped recorder over all hooks.
    pub fn secs(&self) -> f64 {
        self.on_input.secs() + self.on_rule.secs() + self.on_output.secs() + self.on_sig.secs()
    }
}

/// A tuple delivered in the run: an input event, or a tuple a rule
/// derived.
#[derive(Debug)]
pub struct Message {
    /// The node that handles it.
    pub node: NodeId,
    /// The delivered tuple (the run's own shared copy).
    pub tuple: Tuple,
    /// Whether a rule derived it (`false` for input events).
    pub derived: bool,
    /// The messages the node sent while handling it, in firing order.
    pub sends: Vec<Send>,
}

/// One message a rule firing sent.
#[derive(Debug, Clone, Copy)]
pub struct Send {
    /// Where the rule fired.
    pub src: NodeId,
    /// Where the derived tuple goes.
    pub dst: NodeId,
    /// Wire bytes the runtime charges for it.
    pub bytes: usize,
    /// Index of the sent message in [`MessageLog::messages`].
    pub msg: u32,
}

/// Every message of a run, linked into the tree of sends.
#[derive(Debug, Default)]
pub struct MessageLog {
    messages: Vec<Message>,
    /// Message index of each logged tuple, keyed by the address of its
    /// argument buffer. The runtime hands the recorder the same shared
    /// tuple that the message carries, and the log's own clone keeps the
    /// buffer alive, so an address names one message for the whole run
    /// (every relation of the bundled programs has arguments).
    by_payload: HashMap<usize, u32>,
    /// Message index of each execution's input event, by execution id.
    inputs: Vec<Option<u32>>,
}

fn payload_key(t: &Tuple) -> usize {
    t.args().as_ptr() as usize
}

impl MessageLog {
    /// Every message, in the order the recorder first saw it.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// The input message of execution `exec`.
    pub fn input(&self, exec: usize) -> Option<u32> {
        self.inputs.get(exec).copied().flatten()
    }

    fn push(&mut self, node: NodeId, tuple: &Tuple, derived: bool) -> u32 {
        let id = u32::try_from(self.messages.len()).expect("a run logs fewer than 2^32 messages");
        self.by_payload.insert(payload_key(tuple), id);
        self.messages.push(Message {
            node,
            tuple: tuple.clone(),
            derived,
            sends: Vec::new(),
        });
        id
    }

    fn log_input(&mut self, node: NodeId, event: &Tuple, exec: u64) {
        let id = self.push(node, event, false);
        let exec = usize::try_from(exec).expect("execution ids index the input list");
        if self.inputs.len() <= exec {
            self.inputs.resize(exec + 1, None);
        }
        self.inputs[exec] = Some(id);
    }

    fn log_send(&mut self, src: NodeId, event: &Tuple, head: &Tuple, bytes: usize) {
        let parent = *self
            .by_payload
            .get(&payload_key(event))
            .expect("every event reaches the recorder as an input or a head before it fires");
        let dst = head
            .loc()
            .expect("the runtime routes every head by its location");
        let msg = self.push(dst, head, true);
        self.messages[parent as usize].sends.push(Send {
            src,
            dst,
            bytes,
            msg,
        });
    }
}

/// Wraps a recorder: times its hooks and logs the run's messages.
pub struct Timed<R> {
    /// The wrapped scheme.
    pub inner: R,
    /// Hook statistics so far.
    pub hooks: Hooks,
    /// Framing bytes the runtime adds to every message
    /// (`RuntimeConfig::header_bytes`).
    header_bytes: usize,
    log: MessageLog,
}

impl<R> Timed<R> {
    /// Wrap `inner`; `header_bytes` is the runtime's per-message framing.
    pub fn new(inner: R, header_bytes: usize) -> Timed<R> {
        Timed {
            inner,
            hooks: Hooks::default(),
            header_bytes,
            log: MessageLog::default(),
        }
    }

    /// The messages logged so far.
    pub fn log(&self) -> &MessageLog {
        &self.log
    }
}

impl<R: ProvRecorder> ProvRecorder for Timed<R> {
    fn on_input(&mut self, node: NodeId, event: &Tuple, meta: &mut ProvMeta) {
        let start = Instant::now();
        self.inner.on_input(node, event, meta);
        self.hooks.on_input.record(start);
        self.log.log_input(node, event, meta.exec_id);
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
        let start = Instant::now();
        let out = self.inner.on_rule(node, rule, event, slow, head, meta);
        self.hooks.on_rule.record(start);
        let bytes = head.storage_size() + out.wire_bytes + self.header_bytes;
        self.log.log_send(node, event, head, bytes);
        out
    }

    fn on_output(&mut self, node: NodeId, output: &Tuple, meta: &ProvMeta) {
        let start = Instant::now();
        self.inner.on_output(node, output, meta);
        self.hooks.on_output.record(start);
    }

    fn on_base_install(&mut self, node: NodeId, tuple: &Tuple) {
        self.inner.on_base_install(node, tuple);
    }

    fn on_sig(&mut self, node: NodeId) {
        let start = Instant::now();
        self.inner.on_sig(node);
        self.hooks.on_sig.record(start);
    }

    fn storage_at(&self, node: NodeId) -> usize {
        self.inner.storage_at(node)
    }

    fn attach_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.inner.attach_telemetry(telemetry);
    }
}
