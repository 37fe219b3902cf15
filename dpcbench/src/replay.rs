//! Single-layer replays of a logged run. Each feeds one layer the work
//! it did in the run, in run order, and times only that layer.

use std::hint::black_box;

use dpc_common::{NodeId, Tuple};
use dpc_engine::{Database, EvalStats, FnRegistry, PlanSet, RuntimeConfig};
use dpc_ndlog::Delp;
use dpc_netsim::{Network, Sim, SimTime};

use crate::stats::cpu_secs;
use crate::timed::MessageLog;
use crate::Result;

/// The simulator's share of the run.
pub struct NetReplay {
    /// Seconds of `Sim` sends and pops.
    pub busy_s: f64,
    /// Link hops carried.
    pub messages: u64,
    /// Bytes carried over all hops.
    pub bytes: u64,
    /// Message indexes in delivery order: the run's handling order.
    pub order: Vec<u32>,
}

/// Replay the run's message stream through a fresh [`Sim`]: the inputs
/// at their injection times, then every send the handling of each
/// delivered message made. The pushes happen in the run's order, so the
/// simulator sees the run's heap, link queues and routes.
pub fn netsim(
    net: &Network,
    log: &MessageLog,
    inputs: &[(u32, NodeId, SimTime)],
    cfg: &RuntimeConfig,
) -> Result<NetReplay> {
    let mut sim: Sim<u32> = Sim::new(net.clone());
    for &(msg, node, at) in inputs {
        sim.schedule_at(node, at, msg);
    }
    let messages = log.messages();
    let mut order = Vec::with_capacity(messages.len());
    let start = cpu_secs();
    while let Some(d) = sim.pop() {
        order.push(d.msg);
        for s in &messages[d.msg as usize].sends {
            if s.dst == s.src {
                sim.schedule_local(s.src, cfg.rule_proc_delay, s.msg);
            } else {
                sim.send_routed(s.src, s.dst, s.bytes, s.msg)?;
            }
        }
    }
    let busy_s = cpu_secs() - start;
    Ok(NetReplay {
        busy_s,
        messages: sim.stats().messages(),
        bytes: sim.stats().total_bytes(),
        order,
    })
}

/// Rule evaluation's share of the run.
pub struct PlanReplay {
    /// Seconds inside `RulePlan::eval`.
    pub eval_s: f64,
    /// Firings produced.
    pub firings: u64,
    /// Index probes made.
    pub stats: EvalStats,
}

/// Evaluate every delivered event, in run order, through freshly
/// compiled plans against `dbs`: each node's database as set-up left it.
pub fn plans(
    delp: &Delp,
    fns: &FnRegistry,
    mut dbs: Vec<Database>,
    log: &MessageLog,
    order: &[u32],
) -> Result<PlanReplay> {
    let plans = PlanSet::compile(delp)?;
    let messages = log.messages();
    let mut stats = EvalStats::default();
    let mut firings = 0u64;
    let start = cpu_secs();
    for &id in order {
        let m = &messages[id as usize];
        for plan in plans.plans_for_event(m.tuple.rel()) {
            firings += plan
                .eval(&m.tuple, &mut dbs[m.node.index()], fns, &mut stats)?
                .len() as u64;
        }
    }
    let eval_s = cpu_secs() - start;
    Ok(PlanReplay {
        eval_s,
        firings,
        stats,
    })
}

/// Seconds to insert every delivered tuple, in run order, into fresh
/// per-node databases. The tuples carry the digests the run computed, so
/// this times the tables alone.
pub fn inserts(nodes: usize, log: &MessageLog, order: &[u32]) -> f64 {
    let messages = log.messages();
    let mut dbs: Vec<Database> = (0..nodes).map(|_| Database::new()).collect();
    let start = cpu_secs();
    for &id in order {
        let m = &messages[id as usize];
        dbs[m.node.index()].insert(m.tuple.clone());
    }
    let secs = cpu_secs() - start;
    black_box(&dbs);
    secs
}

/// The digest layer's own cost.
pub struct DigestReplay {
    /// Seconds of `Tuple::vid` on fresh copies of every derived tuple.
    pub vid_s: f64,
    /// Bytes fed to SHA-1: each copy is digested twice (`vid` and
    /// `evid`), each time with a one-byte domain tag.
    pub bytes_hashed: u64,
}

/// Digest fresh copies of every derived tuple, in chunks so the copies
/// never all live at once.
pub fn digests(log: &MessageLog) -> DigestReplay {
    const CHUNK: usize = 8192;
    let derived: Vec<&Tuple> = log
        .messages()
        .iter()
        .filter(|m| m.derived)
        .map(|m| &m.tuple)
        .collect();
    let (mut vid_s, mut bytes_hashed) = (0.0, 0u64);
    for chunk in derived.chunks(CHUNK) {
        let fresh: Vec<Tuple> = chunk
            .iter()
            .map(|t| Tuple::from_rel(t.rel_name().clone(), t.args().to_vec()))
            .collect();
        bytes_hashed += fresh
            .iter()
            .map(|t| 2 * (1 + t.encode().len() as u64))
            .sum::<u64>();
        let start = cpu_secs();
        for t in &fresh {
            black_box(t.vid());
        }
        vid_s += cpu_secs() - start;
    }
    DigestReplay {
        vid_s,
        bytes_hashed,
    }
}
