//! Provenance table rows and per-node tables.
//!
//! The storage model follows ExSPAN's distributed relational layout: every
//! node holds a `prov` table and a `ruleExec` table; the columns depend on
//! the maintenance scheme (Tables 1, 2, 3 of the paper). Each table tracks
//! the byte size of its binary serialization incrementally, so storage
//! measurements are O(1) at snapshot time.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use dpc_common::{EvId, NodeId, Rid, StorageSize, Vid};
use dpc_telemetry::{Gauge, PerNode, TelemetryHandle};

/// A `prov` row in the ExSPAN / Basic layout:
/// `(Loc, VID, RID, RLoc)` with NULLable rule reference (Table 1, Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvRow {
    /// Node where the tuple lives.
    pub loc: NodeId,
    /// Content hash of the tuple.
    pub vid: Vid,
    /// Rule execution that derived it (`None` for base tuples).
    pub rid: Option<Rid>,
    /// Node where that rule executed.
    pub rloc: Option<NodeId>,
}

impl StorageSize for ProvRow {
    fn storage_size(&self) -> usize {
        self.loc.storage_size()
            + self.vid.storage_size()
            + self.rid.storage_size()
            + self.rloc.storage_size()
    }
}

/// A `prov` row in the Advanced layout:
/// `(Loc, VID, RLoc, RID, EVID)` (Table 3) — the association of one output
/// tuple (and the event peculiar to its execution) with the shared tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvRowAdv {
    /// Node where the output tuple lives.
    pub loc: NodeId,
    /// Content hash of the output tuple.
    pub vid: Vid,
    /// Location of the shared tree's root-closest rule execution.
    pub rloc: NodeId,
    /// Id of that rule execution.
    pub rid: Rid,
    /// Id of the input event peculiar to this execution.
    pub evid: EvId,
}

impl StorageSize for ProvRowAdv {
    fn storage_size(&self) -> usize {
        self.loc.storage_size()
            + self.vid.storage_size()
            + self.rloc.storage_size()
            + self.rid.storage_size()
            + self.evid.storage_size()
    }
}

/// A `ruleExec` row. ExSPAN uses `(RLoc, RID, R, VIDS)`; Basic and
/// Advanced add the `(NLoc, NRID)` chain columns (Table 2, Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleExecRow {
    /// Node where the rule executed.
    pub rloc: NodeId,
    /// Rule-execution id.
    pub rid: Rid,
    /// Rule label.
    pub rule: String,
    /// Child tuple vids. ExSPAN: event vid first, then slow vids.
    /// Basic: slow vids (plus the input event vid on the chain tail).
    /// Advanced: slow vids only.
    pub vids: Vec<Vid>,
    /// `(NLoc, NRID)`: the next provenance node toward the input event;
    /// `None` on the chain tail (and unused/absent in ExSPAN).
    pub next: Option<(NodeId, Rid)>,
}

impl RuleExecRow {
    /// Serialized size with or without the `NLoc`/`NRID` columns.
    pub fn size_bytes(&self, with_links: bool) -> usize {
        let base = self.rloc.storage_size()
            + self.rid.storage_size()
            + self.rule.storage_size()
            + 4
            + self.vids.len() * 20;
        if with_links {
            base + self.next.storage_size()
        } else {
            base
        }
    }
}

/// A resolved view of one rule-execution provenance node, uniform across
/// the plain `ruleExec` layout and the Section 5.4 node/link split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleExecView {
    /// Rule label.
    pub rule: String,
    /// Child tuple vids (scheme-dependent, see [`RuleExecRow::vids`]).
    pub vids: Vec<Vid>,
    /// Next chain reference toward the input event.
    pub next: Option<(NodeId, Rid)>,
}

/// One node's `prov` table (ExSPAN / Basic layout), with incremental size
/// accounting.
#[derive(Debug, Clone, Default)]
pub struct ProvTable {
    rows: HashMap<Vid, ProvRow>,
    bytes: usize,
}

impl ProvTable {
    /// Insert a row if its `vid` is new; returns whether it was inserted.
    pub fn insert(&mut self, row: ProvRow) -> bool {
        match self.rows.entry(row.vid) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                self.bytes += row.storage_size();
                v.insert(row);
                true
            }
        }
    }

    /// Look up by tuple vid.
    pub fn get(&self, vid: &Vid) -> Option<&ProvRow> {
        self.rows.get(vid)
    }

    /// Iterate all rows (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &ProvRow> {
        self.rows.values()
    }

    /// Serialized size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// One node's `prov` table in the Advanced layout: the rows of one output
/// tuple and execution, keyed by `(vid, evid)` and deduplicated by `rid` —
/// one row per derivation (an execution can have several derivations when
/// a rule joined several slow rows; QUERY returns the whole set,
/// Appendix E).
#[derive(Debug, Clone, Default)]
pub struct ProvTableAdv {
    rows: HashMap<(Vid, EvId), Derivations>,
    len: usize,
    bytes: usize,
}

/// The `prov` rows of one output tuple and execution. Nearly every
/// execution has a single derivation, kept inline without an allocation.
#[derive(Debug, Clone)]
enum Derivations {
    One(ProvRowAdv),
    Many(Vec<ProvRowAdv>),
}

impl Derivations {
    fn as_slice(&self) -> &[ProvRowAdv] {
        match self {
            Derivations::One(row) => std::slice::from_ref(row),
            Derivations::Many(rows) => rows,
        }
    }
}

impl ProvTableAdv {
    /// Insert a row if `(vid, evid, rid)` is new.
    pub fn insert(&mut self, row: ProvRowAdv) -> bool {
        let size = row.storage_size();
        match self.rows.entry((row.vid, row.evid)) {
            Entry::Vacant(v) => {
                v.insert(Derivations::One(row));
            }
            Entry::Occupied(mut o) => {
                let rows = o.get_mut();
                if rows.as_slice().iter().any(|r| r.rid == row.rid) {
                    return false;
                }
                match rows {
                    Derivations::One(first) => *rows = Derivations::Many(vec![first.clone(), row]),
                    Derivations::Many(all) => all.push(row),
                }
            }
        }
        self.len += 1;
        self.bytes += size;
        true
    }

    /// All rows for an output tuple vid and execution evid, in insertion
    /// order — the `GET_PROV` lookup of Appendix E.
    pub fn get_all(&self, vid: &Vid, evid: &EvId) -> &[ProvRowAdv] {
        self.rows
            .get(&(*vid, *evid))
            .map_or(&[], Derivations::as_slice)
    }

    /// The unique row for `(vid, evid)` when the execution had a single
    /// derivation (the common case); `None` when absent or ambiguous.
    pub fn get(&self, vid: &Vid, evid: &EvId) -> Option<&ProvRowAdv> {
        match self.get_all(vid, evid) {
            [row] => Some(row),
            _ => None,
        }
    }

    /// Iterate all rows (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &ProvRowAdv> {
        self.rows.values().flat_map(Derivations::as_slice)
    }

    /// Serialized size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One node's `ruleExec` table.
#[derive(Debug, Clone)]
pub struct RuleExecTable {
    rows: HashMap<Rid, RuleExecRow>,
    bytes: usize,
    with_links: bool,
}

impl RuleExecTable {
    /// Create a table; `with_links` selects whether rows carry (and are
    /// charged for) the `NLoc`/`NRID` columns.
    pub fn new(with_links: bool) -> RuleExecTable {
        RuleExecTable {
            rows: HashMap::new(),
            bytes: 0,
            with_links,
        }
    }

    /// Insert a row if its `rid` is new.
    pub fn insert(&mut self, row: RuleExecRow) -> bool {
        match self.rows.entry(row.rid) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                self.bytes += row.size_bytes(self.with_links);
                v.insert(row);
                true
            }
        }
    }

    /// Look up by rule-execution id.
    pub fn get(&self, rid: &Rid) -> Option<&RuleExecRow> {
        self.rows.get(rid)
    }

    /// Iterate all rows (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &RuleExecRow> {
        self.rows.values()
    }

    /// Serialized size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The Section 5.4 split tables: concrete rule-execution nodes shared
/// across provenance trees (`ruleExecNode`) plus per-tree parent-child
/// links (`ruleExecLink`).
#[derive(Debug, Clone, Default)]
pub struct InterClassTables {
    /// Concrete nodes keyed by the chain-independent node id.
    nodes: HashMap<Rid, RuleExecRow>,
    node_bytes: usize,
    /// Links keyed by the chain-dependent rid: `(node_rid, next)`.
    links: HashMap<Rid, (Rid, Option<(NodeId, Rid)>)>,
    link_bytes: usize,
}

impl InterClassTables {
    /// Insert the concrete node row (idempotent; this is where cross-class
    /// sharing happens) and the per-tree link row. Returns the node-row
    /// bytes *saved* by sharing: the row's serialized size when an equal
    /// concrete node already existed, 0 when this insert materialized it.
    pub fn insert(
        &mut self,
        node_rid: Rid,
        node_row: RuleExecRow,
        chain_rid: Rid,
        next: Option<(NodeId, Rid)>,
    ) -> usize {
        let saved = match self.nodes.entry(node_rid) {
            Entry::Vacant(v) => {
                // Node row: (RLoc, RID, R, VIDS) — never carries links.
                self.node_bytes += node_row.size_bytes(false);
                v.insert(node_row);
                0
            }
            Entry::Occupied(_) => node_row.size_bytes(false),
        };
        if let Entry::Vacant(v) = self.links.entry(chain_rid) {
            // Link row: (RLoc, RID, NLoc, NRID) as in Table 4 — in the
            // paper's layout the link table is scoped per tree, so the
            // stored RID is the concrete node id and tree identity is
            // implicit. Our in-memory key is a chain-dependent rid (which
            // encodes the tree suffix); it maps 1:1 onto the per-tree rows,
            // so we charge the Table 4 row width.
            self.link_bytes += 4 + 20 + next.storage_size();
            v.insert((node_rid, next));
        }
        saved
    }

    /// Resolve a chain rid to a full view (join of link and node rows).
    pub fn get(&self, chain_rid: &Rid) -> Option<RuleExecView> {
        let (node_rid, next) = self.links.get(chain_rid)?;
        let node = self.nodes.get(node_rid)?;
        Some(RuleExecView {
            rule: node.rule.clone(),
            vids: node.vids.clone(),
            next: *next,
        })
    }

    /// Serialized size of both tables.
    pub fn bytes(&self) -> usize {
        self.node_bytes + self.link_bytes
    }

    /// Number of concrete node rows.
    pub fn node_rows(&self) -> usize {
        self.nodes.len()
    }

    /// Number of link rows.
    pub fn link_rows(&self) -> usize {
        self.links.len()
    }
}

/// Per-node [`InterClassTables`] behind a shared handle: the split store
/// of one Advanced recorder, or of several programs' recorders at once
/// (cross-program compression, the paper's Section 8 future work). Clones
/// share state. The simulation is single-threaded; the lock makes the
/// sharing explicit and keeps the handle `Send`.
#[derive(Debug, Clone)]
pub struct SharedNodeStore {
    inner: Arc<Mutex<Vec<InterClassTables>>>,
}

impl SharedNodeStore {
    /// A store for a network of `n` nodes.
    pub fn new(n: usize) -> SharedNodeStore {
        SharedNodeStore {
            inner: Arc::new(Mutex::new(vec![InterClassTables::default(); n])),
        }
    }

    fn tables(&self) -> MutexGuard<'_, Vec<InterClassTables>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Number of nodes the store covers.
    pub(crate) fn node_count(&self) -> usize {
        self.tables().len()
    }

    /// Serialized size of the tables at `node`. Shared across all
    /// participating programs — count it once, not per program.
    pub fn storage_at(&self, node: NodeId) -> usize {
        self.tables()[node.index()].bytes()
    }

    /// Total storage across all nodes.
    pub fn total_storage(&self) -> usize {
        self.tables().iter().map(InterClassTables::bytes).sum()
    }

    /// Concrete node rows at `node`.
    pub fn node_rows(&self, node: NodeId) -> usize {
        self.tables()[node.index()].node_rows()
    }

    /// Link rows at `node`.
    pub fn link_rows(&self, node: NodeId) -> usize {
        self.tables()[node.index()].link_rows()
    }

    /// [`InterClassTables::insert`] at `node`.
    pub(crate) fn insert(
        &self,
        node: NodeId,
        node_rid: Rid,
        node_row: RuleExecRow,
        chain_rid: Rid,
        next: Option<(NodeId, Rid)>,
    ) -> usize {
        self.tables()[node.index()].insert(node_rid, node_row, chain_rid, next)
    }

    /// [`InterClassTables::get`] at `node`.
    pub(crate) fn get(&self, node: NodeId, chain_rid: &Rid) -> Option<RuleExecView> {
        self.tables().get(node.index())?.get(chain_rid)
    }
}

/// The per-node table gauges every scheme reports after a table changes
/// (`recorder.prov_rows`, `recorder.rule_exec_rows`,
/// `recorder.storage_bytes`), registered once when telemetry attaches.
#[derive(Debug)]
pub(crate) struct TableGauges {
    prov_rows: PerNode<Gauge>,
    rule_exec_rows: PerNode<Gauge>,
    storage_bytes: PerNode<Gauge>,
}

impl TableGauges {
    pub(crate) fn register(t: &TelemetryHandle, nodes: usize) -> TableGauges {
        TableGauges {
            prov_rows: t.node_gauges("recorder.prov_rows", nodes),
            rule_exec_rows: t.node_gauges("recorder.rule_exec_rows", nodes),
            storage_bytes: t.node_gauges("recorder.storage_bytes", nodes),
        }
    }

    /// Report `node`'s `(prov, ruleExec)` row counts and storage bytes.
    pub(crate) fn report(&self, node: NodeId, (prov, rule_exec): (usize, usize), bytes: usize) {
        self.prov_rows.at(node.0).set(prov as i64);
        self.rule_exec_rows.at(node.0).set(rule_exec as i64);
        self.storage_bytes.at(node.0).set(bytes as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_common::{Tuple, Value};

    fn vid(n: u8) -> Vid {
        Vid::of_bytes(&[n])
    }
    fn rid(n: u8) -> Rid {
        Rid::of_bytes(&[n])
    }
    fn evid(n: u8) -> EvId {
        EvId::of_bytes(&[n])
    }

    #[test]
    fn prov_row_sizes() {
        let full = ProvRow {
            loc: NodeId(1),
            vid: vid(1),
            rid: Some(rid(1)),
            rloc: Some(NodeId(2)),
        };
        // 4 + 20 + (1+20) + (1+4)
        assert_eq!(full.storage_size(), 50);
        let base = ProvRow {
            loc: NodeId(1),
            vid: vid(1),
            rid: None,
            rloc: None,
        };
        assert_eq!(base.storage_size(), 26);
        let adv = ProvRowAdv {
            loc: NodeId(1),
            vid: vid(1),
            rloc: NodeId(2),
            rid: rid(1),
            evid: evid(1),
        };
        // 4 + 20 + 4 + 20 + 20
        assert_eq!(adv.storage_size(), 68);
    }

    #[test]
    fn rule_exec_row_sizes() {
        let row = RuleExecRow {
            rloc: NodeId(1),
            rid: rid(1),
            rule: "r1".into(),
            vids: vec![vid(1), vid(2)],
            next: Some((NodeId(2), rid(2))),
        };
        // base: 4 + 20 + (4+2) + 4 + 40 = 74
        assert_eq!(row.size_bytes(false), 74);
        // with links: + (1 + 24) = 99
        assert_eq!(row.size_bytes(true), 99);
        let tail = RuleExecRow { next: None, ..row };
        assert_eq!(tail.size_bytes(true), 75);
    }

    #[test]
    fn prov_table_dedups_and_counts_bytes() {
        let mut t = ProvTable::default();
        let row = ProvRow {
            loc: NodeId(0),
            vid: vid(1),
            rid: None,
            rloc: None,
        };
        assert!(t.insert(row.clone()));
        assert!(!t.insert(row.clone()));
        assert_eq!(t.len(), 1);
        assert_eq!(t.bytes(), row.storage_size());
        assert_eq!(t.get(&vid(1)), Some(&row));
        assert_eq!(t.get(&vid(9)), None);
    }

    #[test]
    fn adv_table_keys_by_vid_and_evid() {
        let mut t = ProvTableAdv::default();
        let mk = |e: u8| ProvRowAdv {
            loc: NodeId(0),
            vid: vid(1),
            rloc: NodeId(0),
            rid: rid(1),
            evid: evid(e),
        };
        assert!(t.insert(mk(1)));
        assert!(t.insert(mk(2))); // same vid, different execution
        assert!(!t.insert(mk(1)));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get_all(&vid(1), &evid(2)), &[mk(2)]);
        assert!(t.get(&vid(1), &evid(1)).is_some());
        assert!(t.get(&vid(1), &evid(3)).is_none());
        // A second derivation of one execution: both rows come back in
        // insertion order, and the unique-row lookup declines.
        let sibling = ProvRowAdv {
            rid: rid(2),
            ..mk(1)
        };
        assert!(t.insert(sibling.clone()));
        assert_eq!(t.len(), 3);
        assert_eq!(t.bytes(), 3 * sibling.storage_size());
        assert_eq!(t.get_all(&vid(1), &evid(1)), &[mk(1), sibling]);
        assert!(t.get(&vid(1), &evid(1)).is_none());
    }

    #[test]
    fn rule_exec_table_respects_link_mode() {
        let row = RuleExecRow {
            rloc: NodeId(0),
            rid: rid(1),
            rule: "r1".into(),
            vids: vec![vid(1)],
            next: None,
        };
        let mut no_links = RuleExecTable::new(false);
        no_links.insert(row.clone());
        let mut links = RuleExecTable::new(true);
        links.insert(row.clone());
        assert_eq!(no_links.bytes() + 1, links.bytes()); // NULL next = 1 byte
        assert!(!links.insert(row));
    }

    #[test]
    fn interclass_shares_node_rows() {
        let mut t = InterClassTables::default();
        let node_row = RuleExecRow {
            rloc: NodeId(0),
            rid: rid(10),
            rule: "r1".into(),
            vids: vec![vid(1)],
            next: None,
        };
        // Two different chains referencing the same concrete node.
        t.insert(rid(10), node_row.clone(), rid(1), Some((NodeId(1), rid(2))));
        let before = t.bytes();
        t.insert(rid(10), node_row.clone(), rid(3), None);
        let after = t.bytes();
        assert_eq!(t.node_rows(), 1);
        assert_eq!(t.link_rows(), 2);
        // Second insert only added a link row, cheaper than a node row.
        assert!(after - before < node_row.size_bytes(false));

        let v1 = t.get(&rid(1)).unwrap();
        assert_eq!(v1.next, Some((NodeId(1), rid(2))));
        let v3 = t.get(&rid(3)).unwrap();
        assert_eq!(v3.next, None);
        assert_eq!(v1.rule, v3.rule);
        assert!(t.get(&rid(9)).is_none());
    }

    #[test]
    fn interclass_link_and_node_insert_idempotent() {
        let mut t = InterClassTables::default();
        let node_row = RuleExecRow {
            rloc: NodeId(0),
            rid: rid(10),
            rule: "r1".into(),
            vids: vec![],
            next: None,
        };
        t.insert(rid(10), node_row.clone(), rid(1), None);
        let bytes = t.bytes();
        t.insert(rid(10), node_row, rid(1), None);
        assert_eq!(t.bytes(), bytes);
    }

    // Sanity: tuple storage sizes referenced in the paper discussion — a
    // packet with a 500-char payload dominates the meta overhead.
    #[test]
    fn payload_dominates_meta() {
        let pkt = Tuple::new(
            "packet",
            vec![
                Value::Addr(NodeId(0)),
                Value::Addr(NodeId(0)),
                Value::Addr(NodeId(1)),
                Value::str("x".repeat(500)),
            ],
        );
        assert!(pkt.storage_size() > 500);
    }
}
