//! Per-node relational databases.
//!
//! [`Table`] stores rows in *slots*: an append-only vector where deletion
//! blanks the slot (a tombstone) instead of shifting the suffix. That makes
//! [`Table::remove`] O(1) while iteration stays in insertion order —
//! the property the evaluator relies on for reproducible rule firings.
//! Tombstones are compacted (order-preservingly) once they outnumber live
//! rows, so memory stays proportional to the live set.
//!
//! Tables also maintain **secondary hash indexes** keyed by argument
//! positions. An index is built lazily the first time a compiled rule plan
//! probes a `(relation, positions)` combination, and is maintained
//! incrementally on insert; removal relies on tombstones (stale slot ids in
//! a bucket point at blanked slots and are skipped). Buckets list slot ids
//! in insertion order, so an index probe yields exactly the rows a full
//! scan would have matched, in the same order.

use std::collections::HashMap;

use dpc_common::{RelName, StorageSize, Tuple, Value, Vid};

/// Index key: the concatenated canonical encodings of the values at the
/// indexed positions. `Value::encode_into` is self-delimiting, so for a
/// fixed position list the concatenation is injective.
fn index_key(positions: &[usize], args: &[Value]) -> Option<Vec<u8>> {
    let mut key = Vec::with_capacity(positions.len() * 8);
    for &p in positions {
        args.get(p)?.encode_into(&mut key);
    }
    Some(key)
}

/// A secondary hash index over one `(relation, positions)` combination.
#[derive(Debug, Clone, Default)]
struct SecondaryIndex {
    /// Key bytes -> slot ids in insertion order. Slot ids may be stale
    /// (tombstoned); probes skip them.
    buckets: HashMap<Vec<u8>, Vec<usize>>,
    /// Set when a row's arity does not cover the indexed positions; such a
    /// row cannot be keyed, so the index is unusable and probes fall back
    /// to scanning.
    degenerate: bool,
}

impl SecondaryIndex {
    fn add(&mut self, positions: &[usize], slot: usize, t: &Tuple) {
        if self.degenerate {
            return;
        }
        match index_key(positions, t.args()) {
            Some(key) => self.buckets.entry(key).or_default().push(slot),
            None => {
                self.buckets.clear();
                self.degenerate = true;
            }
        }
    }
}

/// One relation's rows at one node.
///
/// Rows are kept in insertion-order slots (deterministic iteration, so
/// joins and therefore rule firings are reproducible) plus a position map
/// (O(1) duplicate detection and O(1) removal), plus any secondary indexes
/// built for compiled-plan probes. The rows' total [`StorageSize`] is kept
/// as a running sum, so the table's storage size costs O(1).
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Append-only row storage; `None` is a tombstone left by `remove`.
    slots: Vec<Option<Tuple>>,
    /// Sum of the live rows' [`StorageSize`].
    row_bytes: usize,
    /// Row -> slot id, for the live rows only.
    pos: HashMap<Tuple, usize>,
    /// Secondary indexes keyed by the indexed argument positions.
    indexes: HashMap<Box<[usize]>, SecondaryIndex>,
}

impl Table {
    /// An empty table.
    pub fn new() -> Table {
        Table::default()
    }

    /// Insert a row; returns `true` if it was not already present.
    pub fn insert(&mut self, t: Tuple) -> bool {
        if self.pos.contains_key(&t) {
            return false;
        }
        let slot = self.slots.len();
        for (positions, idx) in &mut self.indexes {
            idx.add(positions, slot, &t);
        }
        self.row_bytes += t.storage_size();
        self.pos.insert(t.clone(), slot);
        self.slots.push(Some(t));
        true
    }

    /// Remove a row; returns `true` if it was present. O(1): the slot is
    /// tombstoned, and slots are compacted (preserving order) only once
    /// tombstones outnumber live rows.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let Some(slot) = self.pos.remove(t) else {
            return false;
        };
        self.row_bytes -= t.storage_size();
        self.slots[slot] = None;
        let tombstones = self.slots.len() - self.pos.len();
        if tombstones > self.pos.len().max(16) {
            self.compact();
        }
        true
    }

    /// Drop tombstones, renumber slots in insertion order, and discard the
    /// secondary indexes (they are rebuilt lazily on the next probe).
    fn compact(&mut self) {
        self.slots.retain(Option::is_some);
        self.pos.clear();
        for (slot, row) in self.slots.iter().enumerate() {
            let row = row.as_ref().expect("tombstones were just dropped");
            self.pos.insert(row.clone(), slot);
        }
        self.indexes.clear();
    }

    /// Does the table contain `t`?
    pub fn contains(&self, t: &Tuple) -> bool {
        self.pos.contains_key(t)
    }

    /// Live rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Ensure a secondary index exists for `positions`, building it from
    /// the current live rows if needed. Returns `false` if the index is
    /// unusable (some row's arity does not cover `positions`) — callers
    /// should fall back to a scan.
    pub fn ensure_index(&mut self, positions: &[usize]) -> bool {
        if !self.indexes.contains_key(positions) {
            let mut idx = SecondaryIndex::default();
            for (slot, row) in self.slots.iter().enumerate() {
                if let Some(row) = row {
                    idx.add(positions, slot, row);
                }
            }
            self.indexes.insert(positions.into(), idx);
        }
        !self.indexes[positions].degenerate
    }

    /// Probe the `positions` index for rows whose indexed values encode to
    /// `key`, in insertion order. Returns `None` when the index is missing
    /// or degenerate ([`Table::ensure_index`] builds it beforehand).
    pub fn probe<'a>(
        &'a self,
        positions: &[usize],
        key: &[u8],
    ) -> Option<impl Iterator<Item = &'a Tuple>> {
        let idx = self.indexes.get(positions)?;
        if idx.degenerate {
            return None;
        }
        let bucket = idx.buckets.get(key).map(Vec::as_slice).unwrap_or(&[]);
        Some(bucket.iter().filter_map(|&s| self.slots[s].as_ref()))
    }

    /// Number of secondary indexes currently materialized.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }
}

impl StorageSize for Table {
    fn storage_size(&self) -> usize {
        4 + self.row_bytes
    }
}

/// One node's local database: tables keyed by relation name, plus a
/// content-addressed index (`vid -> tuple`) used at provenance-query time
/// to resolve the tuples referenced by `VIDS` columns and prov rows.
///
/// Two ways in: [`Database::insert`] puts a tuple in its relation's join
/// table (slow-changing base tuples, which rules join) and in the vid
/// index; [`Database::retain`] puts it in the vid index only (event and
/// output tuples, which no rule joins but queries may resolve).
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: HashMap<RelName, Table>,
    by_vid: HashMap<Vid, Tuple>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Insert a tuple into its relation's table; returns `true` if new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        let rel = t.rel_name().clone();
        let fresh = self.tables.entry(rel).or_default().insert(t.clone());
        if fresh {
            self.by_vid.insert(t.vid(), t);
        }
        fresh
    }

    /// Make `t` resolvable through [`Database::by_vid`] without putting it
    /// in any join table: it costs one digest and one map insert, and it
    /// never shows up in [`Database::rows`], [`Database::count`] or the
    /// table sizes.
    pub fn retain(&mut self, t: Tuple) {
        self.by_vid.insert(t.vid(), t);
    }

    /// Remove a tuple. The vid index keeps the tuple resolvable afterwards:
    /// provenance is monotone (Section 5.5 — deletion does not invalidate
    /// recorded history), so queries may still reference it.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        match self.tables.get_mut(t.rel()) {
            Some(table) => table.remove(t),
            None => false,
        }
    }

    /// The table for `rel`, if it has ever held a row.
    pub fn table(&self, rel: &str) -> Option<&Table> {
        self.tables.get(rel)
    }

    /// Mutable access to the table for `rel` (used by compiled plans to
    /// build indexes lazily while joining).
    pub fn table_mut(&mut self, rel: &str) -> Option<&mut Table> {
        self.tables.get_mut(rel)
    }

    /// Rows of `rel` in insertion order (empty if the relation is unknown).
    pub fn rows(&self, rel: &str) -> impl Iterator<Item = &Tuple> {
        self.tables.get(rel).into_iter().flat_map(Table::iter)
    }

    /// Does `rel` currently contain `t`?
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tables.get(t.rel()).is_some_and(|tb| tb.contains(t))
    }

    /// Number of live rows in `rel`.
    pub fn count(&self, rel: &str) -> usize {
        self.tables.get(rel).map_or(0, Table::len)
    }

    /// Resolve a tuple by content hash. Covers every tuple ever inserted
    /// or retained, including since-deleted ones.
    pub fn by_vid(&self, vid: &Vid) -> Option<&Tuple> {
        self.by_vid.get(vid)
    }

    /// Names of relations with at least one (current) row.
    pub fn relations(&self) -> impl Iterator<Item = &RelName> {
        self.tables.keys()
    }

    /// Total rows across all join tables (retained tuples not included).
    pub fn len(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Estimated wire-format bytes of all current rows (sum of the
    /// tables' [`StorageSize`]), the database-side analogue of the
    /// recorders' storage estimate. O(number of relations).
    pub fn estimated_bytes(&self) -> usize {
        self.tables.values().map(StorageSize::storage_size).sum()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_common::{NodeId, Value};

    fn route(loc: u32, dst: u32, next: u32) -> Tuple {
        Tuple::new(
            "route",
            vec![
                Value::Addr(NodeId(loc)),
                Value::Addr(NodeId(dst)),
                Value::Addr(NodeId(next)),
            ],
        )
    }

    fn dsts(t: &Table) -> Vec<u32> {
        t.iter().map(|r| r.args()[1].as_addr().unwrap().0).collect()
    }

    #[test]
    fn insert_dedups() {
        let mut t = Table::new();
        assert!(t.insert(route(1, 3, 2)));
        assert!(!t.insert(route(1, 3, 2)));
        assert_eq!(t.len(), 1);
        assert!(t.contains(&route(1, 3, 2)));
    }

    #[test]
    fn remove_works() {
        let mut t = Table::new();
        t.insert(route(1, 3, 2));
        assert!(t.remove(&route(1, 3, 2)));
        assert!(!t.remove(&route(1, 3, 2)));
        assert!(t.is_empty());
    }

    #[test]
    fn rows_preserve_insertion_order() {
        let mut t = Table::new();
        t.insert(route(1, 3, 2));
        t.insert(route(1, 2, 2));
        t.insert(route(1, 4, 3));
        assert_eq!(dsts(&t), vec![3, 2, 4]);
    }

    #[test]
    fn iteration_order_survives_removal_and_compaction() {
        // Regression test for the O(n) `rows.retain` removal: tombstoning
        // and compaction must both preserve insertion order exactly.
        let mut t = Table::new();
        for dst in 0..100 {
            t.insert(route(1, dst, 2));
        }
        // Remove every even destination — more than enough to trigger the
        // tombstone-majority compaction at least once.
        for dst in (0..100).step_by(2) {
            assert!(t.remove(&route(1, dst, 2)));
        }
        assert_eq!(t.len(), 50);
        let expect: Vec<u32> = (0..100).filter(|d| d % 2 == 1).collect();
        assert_eq!(dsts(&t), expect);
        // Re-inserting lands at the end, as with a plain Vec.
        t.insert(route(1, 0, 2));
        let mut expect2 = expect.clone();
        expect2.push(0);
        assert_eq!(dsts(&t), expect2);
    }

    #[test]
    fn index_probe_matches_scan_in_order() {
        let mut t = Table::new();
        t.insert(route(1, 3, 2));
        t.insert(route(1, 2, 2));
        t.insert(route(1, 3, 4)); // second row for dst=3
        assert!(t.ensure_index(&[1]));
        // Key built from position 1 of a probe binding: dst = n3.
        let mut key = Vec::new();
        Value::Addr(NodeId(3)).encode_into(&mut key);
        let hits: Vec<_> = t.probe(&[1], &key).unwrap().cloned().collect();
        assert_eq!(hits, vec![route(1, 3, 2), route(1, 3, 4)]);
        // Unknown key: empty, but still served by the index.
        let mut k2 = Vec::new();
        Value::Addr(NodeId(9)).encode_into(&mut k2);
        assert_eq!(t.probe(&[1], &k2).unwrap().count(), 0);
    }

    #[test]
    fn index_is_maintained_on_insert_and_skips_tombstones() {
        let mut t = Table::new();
        t.insert(route(1, 3, 2));
        assert!(t.ensure_index(&[1]));
        // Insert after the index exists: incrementally added.
        t.insert(route(1, 3, 4));
        let mut key = Vec::new();
        Value::Addr(NodeId(3)).encode_into(&mut key);
        assert_eq!(t.probe(&[1], &key).unwrap().count(), 2);
        // Remove one: the stale bucket entry is skipped.
        t.remove(&route(1, 3, 2));
        let left: Vec<_> = t.probe(&[1], &key).unwrap().cloned().collect();
        assert_eq!(left, vec![route(1, 3, 4)]);
    }

    #[test]
    fn short_arity_row_degrades_index_to_scan() {
        let mut t = Table::new();
        t.insert(Tuple::new("route", vec![Value::Addr(NodeId(1))]));
        assert!(!t.ensure_index(&[1]), "position 1 not covered by arity 1");
        assert!(t.probe(&[1], &[]).is_none());
        // And the degenerate marker also applies when the short row arrives
        // after the index was built.
        let mut t2 = Table::new();
        t2.insert(route(1, 3, 2));
        assert!(t2.ensure_index(&[1]));
        t2.insert(Tuple::new("route", vec![Value::Addr(NodeId(1))]));
        assert!(!t2.ensure_index(&[1]));
        assert!(t2.probe(&[1], &[]).is_none());
    }

    #[test]
    fn database_routes_by_relation() {
        let mut db = Database::new();
        db.insert(route(1, 3, 2));
        db.insert(Tuple::new("link", vec![Value::Addr(NodeId(1))]));
        assert_eq!(db.count("route"), 1);
        assert_eq!(db.count("link"), 1);
        assert_eq!(db.count("nosuch"), 0);
        assert_eq!(db.rows("nosuch").count(), 0);
        assert_eq!(db.len(), 2);
        assert_eq!(db.relations().count(), 2);
    }

    #[test]
    fn vid_index_survives_deletion() {
        let mut db = Database::new();
        let r = route(1, 3, 2);
        let vid = r.vid();
        db.insert(r.clone());
        db.remove(&r);
        assert_eq!(db.count("route"), 0);
        assert_eq!(db.by_vid(&vid), Some(&r));
    }

    #[test]
    fn retained_tuples_resolve_but_stay_out_of_the_tables() {
        let mut db = Database::new();
        db.insert(route(1, 3, 2));
        let ev = Tuple::new(
            "packet",
            vec![Value::Addr(NodeId(1)), Value::str("payload")],
        );
        let bytes = db.estimated_bytes();
        db.retain(ev.clone());
        db.retain(ev.clone()); // idempotent
        assert_eq!(db.by_vid(&ev.vid()), Some(&ev));
        assert!(!db.contains(&ev));
        assert_eq!(db.count("packet"), 0);
        assert_eq!(db.rows("packet").count(), 0);
        assert!(db.table("packet").is_none());
        assert_eq!(db.len(), 1);
        assert_eq!(db.relations().count(), 1);
        assert_eq!(db.estimated_bytes(), bytes);
    }

    /// The running byte total must equal a recount over the live rows.
    fn assert_bytes_match_recount(t: &Table) {
        let recount: usize = t.iter().map(StorageSize::storage_size).sum();
        assert_eq!(t.storage_size(), 4 + recount);
    }

    #[test]
    fn running_storage_size_matches_recount_under_churn() {
        use dpc_common::{Rng, SeededRng};
        let mut rng = SeededRng::seed_from_u64(0x7AB1E);
        // Rows of varying size, drawn from a small space so inserts
        // collide with live rows and removes often miss.
        let row = |rng: &mut SeededRng| {
            Tuple::new(
                "packet",
                vec![
                    Value::Addr(NodeId(rng.bounded(8) as u32)),
                    Value::str("x".repeat(rng.bounded(24) as usize)),
                ],
            )
        };
        let mut t = Table::new();
        for _ in 0..2000 {
            let r = row(&mut rng);
            let present = t.contains(&r);
            if rng.bounded(2) == 0 {
                assert_eq!(t.insert(r.clone()), !present);
                assert_bytes_match_recount(&t);
                assert!(!t.insert(r), "duplicate insert");
            } else {
                assert_eq!(t.remove(&r), present);
                assert_bytes_match_recount(&t);
                assert!(!t.remove(&r), "remove of a missing tuple");
            }
            assert_bytes_match_recount(&t);
        }

        // Bulk removals past the compaction threshold (tombstones
        // outnumbering live rows), with an index to discard on the way.
        let mut t = Table::new();
        for i in 0..400u32 {
            t.insert(Tuple::new(
                "packet",
                vec![
                    Value::Addr(NodeId(i)),
                    Value::str("y".repeat(i as usize % 17)),
                ],
            ));
        }
        t.ensure_index(&[0]);
        let slots_before = t.slots.len();
        let mut rows: Vec<Tuple> = t.iter().cloned().collect();
        while rows.len() > 10 {
            let r = rows.swap_remove(rng.bounded(rows.len() as u64) as usize);
            assert!(t.remove(&r));
            assert_bytes_match_recount(&t);
        }
        assert!(t.slots.len() < slots_before, "compaction ran");

        // Edits through `Database::table_mut` keep the database total.
        let mut db = Database::new();
        for _ in 0..50 {
            db.insert(row(&mut rng));
            db.insert(route(1, rng.bounded(50) as u32, 2));
        }
        let db_recount = |db: &Database| -> usize {
            db.relations()
                .map(|rel| 4 + db.rows(rel).map(StorageSize::storage_size).sum::<usize>())
                .sum()
        };
        assert_eq!(db.estimated_bytes(), db_recount(&db));
        for _ in 0..200 {
            let r = row(&mut rng);
            let table = db.table_mut("packet").expect("packet rows exist");
            if rng.bounded(2) == 0 {
                table.insert(r);
            } else {
                table.remove(&r);
            }
            assert_bytes_match_recount(db.table("packet").unwrap());
            assert_eq!(db.estimated_bytes(), db_recount(&db));
        }
    }

    #[test]
    fn table_storage_size() {
        let mut t = Table::new();
        assert_eq!(t.storage_size(), 4);
        let r = route(1, 3, 2);
        let row = r.storage_size();
        t.insert(r);
        assert_eq!(t.storage_size(), 4 + row);
    }
}
