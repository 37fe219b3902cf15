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
//! positions. [`Table::index`] finds the index on a position list, building
//! it from the live rows the first time a compiled rule plan asks; a table
//! keeps its few indexes in a `Vec`, so finding one compares a handful of
//! short position lists and hashes nothing. A bucket is keyed by the `u64`
//! [`FastHasher`] hash of the key [`Value`]s themselves and chains slot ids
//! in insertion order. Distinct keys may share a hash, so [`Index::probe`]
//! re-checks every candidate row against the key: a collision can only add
//! candidates, never drop or reorder matches, and a probe yields exactly the
//! rows a full scan would have matched, in the same order. Indexes are
//! maintained incrementally on insert; removal relies on tombstones (stale
//! slot ids in a bucket point at blanked slots and are skipped), and
//! compaction discards the indexes, to be rebuilt on the next probe.
//!
//! Tables, row positions and the vid index are [`FastMap`]s: their keys
//! (relation names, tuples, digests) are made by the program, never read
//! from outside it.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use dpc_common::{FastHasher, FastMap, RelName, StorageSize, Tuple, Value, Vid};

/// The bucket key of `key`: the [`FastHasher`] hash of its values in
/// order. Row and probe sides both hash through here, so equal keys land
/// in the same bucket.
fn key_hash<'v>(key: impl IntoIterator<Item = &'v Value>) -> u64 {
    let mut h = FastHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// Ends a bucket's chain of slots.
const NIL: u32 = u32::MAX;

/// A secondary hash index over one `(relation, positions)` combination.
///
/// A bucket is a chain of slot ids in insertion order, linked through
/// `next`, so adding a row allocates nothing beyond amortized growth of
/// the two tables. Chained slots may be stale (tombstoned), and rows of
/// different keys may share a bucket; probes skip the one and re-check
/// the other.
#[derive(Debug, Clone)]
struct SecondaryIndex {
    /// The indexed argument positions, ascending.
    positions: Box<[usize]>,
    /// Key hash -> the first and last slot of its bucket's chain.
    buckets: FastMap<u64, (u32, u32)>,
    /// Slot -> the next slot of its bucket, or [`NIL`].
    next: Vec<u32>,
    /// Set when a row's arity does not cover the indexed positions; such a
    /// row cannot be keyed, so the index is unusable and probes fall back
    /// to scanning.
    degenerate: bool,
    /// Test hook: put every key in bucket 0, to exercise collisions.
    #[cfg(test)]
    collide: bool,
}

impl SecondaryIndex {
    fn bucket_of<'v>(&self, key: impl IntoIterator<Item = &'v Value>) -> u64 {
        #[cfg(test)]
        if self.collide {
            return 0;
        }
        key_hash(key)
    }

    /// Append `t`, stored at `slot`, to its bucket. Slots arrive in
    /// ascending order.
    fn add(&mut self, slot: usize, t: &Tuple) {
        if self.degenerate {
            return;
        }
        let args = t.args();
        if self.positions.iter().any(|&p| p >= args.len()) {
            self.buckets = FastMap::default();
            self.next = Vec::new();
            self.degenerate = true;
            return;
        }
        let h = self.bucket_of(self.positions.iter().map(|&p| &args[p]));
        let id = u32::try_from(slot).expect("a table holds fewer than 2^32 slots");
        self.next.resize(slot + 1, NIL);
        match self.buckets.entry(h) {
            Entry::Occupied(mut chain) => {
                let last = &mut chain.get_mut().1;
                self.next[*last as usize] = id;
                *last = id;
            }
            Entry::Vacant(chain) => {
                chain.insert((id, id));
            }
        }
    }
}

/// One of a table's secondary indexes, borrowed together with the rows it
/// points into. Returned by [`Table::index`]; the table cannot change
/// while it is held.
#[derive(Debug, Clone, Copy)]
pub struct Index<'a> {
    slots: &'a [Option<Tuple>],
    idx: &'a SecondaryIndex,
}

impl<'a> Index<'a> {
    /// Live rows whose values at the indexed positions equal `key` (one
    /// value per position, in position order), in insertion order.
    pub fn probe<'k>(self, key: &'k [Value]) -> impl Iterator<Item = &'a Tuple> + 'k
    where
        'a: 'k,
    {
        debug_assert_eq!(
            key.len(),
            self.idx.positions.len(),
            "one key value per position"
        );
        let Index { slots, idx } = self;
        let mut at = idx
            .buckets
            .get(&idx.bucket_of(key))
            .map_or(NIL, |&(first, _)| first);
        std::iter::from_fn(move || {
            while at != NIL {
                let slot = at as usize;
                at = idx.next[slot];
                if let Some(row) = &slots[slot] {
                    let args = row.args();
                    if idx.positions.iter().zip(key).all(|(&p, k)| args[p] == *k) {
                        return Some(row);
                    }
                }
            }
            None
        })
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
    pos: FastMap<Tuple, usize>,
    /// Secondary indexes, in the order they were first asked for.
    indexes: Vec<SecondaryIndex>,
    /// Test hook: build every index with colliding buckets.
    #[cfg(test)]
    collide: bool,
}

impl Table {
    /// An empty table.
    pub fn new() -> Table {
        Table::default()
    }

    /// An empty table whose indexes put every key in one bucket, so probes
    /// rely on the key re-check alone.
    #[cfg(test)]
    fn with_colliding_keys() -> Table {
        Table {
            collide: true,
            ..Table::default()
        }
    }

    /// Insert a row; returns `true` if it was not already present.
    pub fn insert(&mut self, t: Tuple) -> bool {
        if self.pos.contains_key(&t) {
            return false;
        }
        let slot = self.slots.len();
        for idx in &mut self.indexes {
            idx.add(slot, &t);
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
    /// secondary indexes (they are rebuilt on the next probe).
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

    /// The secondary index on `positions` (ascending), built from the
    /// current live rows the first time it is asked for. `None` when the
    /// index is unusable because some row's arity does not cover
    /// `positions`; callers then scan.
    pub fn index(&mut self, positions: &[usize]) -> Option<Index<'_>> {
        let i = match self
            .indexes
            .iter()
            .position(|ix| *ix.positions == *positions)
        {
            Some(i) => i,
            None => {
                let mut idx = SecondaryIndex {
                    positions: positions.into(),
                    buckets: FastMap::default(),
                    next: Vec::new(),
                    degenerate: false,
                    #[cfg(test)]
                    collide: self.collide,
                };
                for (slot, row) in self.slots.iter().enumerate() {
                    if let Some(row) = row {
                        idx.add(slot, row);
                    }
                }
                self.indexes.push(idx);
                self.indexes.len() - 1
            }
        };
        let idx = &self.indexes[i];
        (!idx.degenerate).then_some(Index {
            slots: &self.slots,
            idx,
        })
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
    tables: FastMap<RelName, Table>,
    by_vid: FastMap<Vid, Tuple>,
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

    fn addr(n: u32) -> Value {
        Value::Addr(NodeId(n))
    }

    /// Probe `t`'s index on `positions` for `key`.
    fn probe(t: &mut Table, positions: &[usize], key: &[Value]) -> Vec<Tuple> {
        let idx = t.index(positions).expect("index is usable");
        idx.probe(key).cloned().collect()
    }

    #[test]
    fn index_probe_matches_scan_in_order() {
        let mut t = Table::new();
        t.insert(route(1, 3, 2));
        t.insert(route(1, 2, 2));
        t.insert(route(1, 3, 4)); // second row for dst=3
        assert_eq!(
            probe(&mut t, &[1], &[addr(3)]),
            vec![route(1, 3, 2), route(1, 3, 4)]
        );
        // Unknown key: empty, but still served by the index.
        assert!(probe(&mut t, &[1], &[addr(9)]).is_empty());
        // Asking again finds the same index rather than building another.
        assert_eq!(
            probe(&mut t, &[0, 1], &[addr(1), addr(2)]),
            vec![route(1, 2, 2)]
        );
        assert_eq!(t.index_count(), 2);
        t.index(&[1]).unwrap();
        assert_eq!(t.index_count(), 2);
    }

    #[test]
    fn index_is_maintained_on_insert_and_skips_tombstones() {
        let mut t = Table::new();
        t.insert(route(1, 3, 2));
        assert!(t.index(&[1]).is_some());
        // Insert after the index exists: incrementally added.
        t.insert(route(1, 3, 4));
        assert_eq!(probe(&mut t, &[1], &[addr(3)]).len(), 2);
        // Remove one: the stale bucket entry is skipped.
        t.remove(&route(1, 3, 2));
        assert_eq!(probe(&mut t, &[1], &[addr(3)]), vec![route(1, 3, 4)]);
    }

    #[test]
    fn short_arity_row_degrades_index_to_scan() {
        let mut t = Table::new();
        t.insert(Tuple::new("route", vec![addr(1)]));
        assert!(t.index(&[1]).is_none(), "position 1 not covered by arity 1");
        // And the degenerate marker also applies when the short row arrives
        // after the index was built.
        let mut t2 = Table::new();
        t2.insert(route(1, 3, 2));
        assert!(t2.index(&[1]).is_some());
        t2.insert(Tuple::new("route", vec![addr(1)]));
        assert!(t2.index(&[1]).is_none());
    }

    /// Keys that a length-prefixed byte encoding kept apart must still
    /// never match: a value's variant and the split between positions are
    /// part of the key, not only the payload bytes.
    #[test]
    fn keys_of_equal_payload_never_match() {
        let table = |collide: bool| {
            if collide {
                Table::with_colliding_keys()
            } else {
                Table::new()
            }
        };
        for collide in [false, true] {
            let mut t = table(collide);
            t.insert(Tuple::new("s", vec![addr(1), Value::Int(3)]));
            t.insert(Tuple::new("s", vec![addr(1), addr(3)]));
            t.insert(Tuple::new("s", vec![addr(1), Value::str("3")]));
            let by_val = |t: &mut Table, v: Value| probe(t, &[1], &[v]);
            assert_eq!(
                by_val(&mut t, Value::Int(3)),
                vec![Tuple::new("s", vec![addr(1), Value::Int(3)])]
            );
            assert_eq!(
                by_val(&mut t, addr(3)),
                vec![Tuple::new("s", vec![addr(1), addr(3)])]
            );
            assert!(by_val(&mut t, Value::Bool(true)).is_empty());

            let row =
                |a: &str, b: &str| Tuple::new("p", vec![addr(1), Value::str(a), Value::str(b)]);
            let mut p = table(collide);
            p.insert(row("ab", "c"));
            p.insert(row("a", "bc"));
            p.insert(row("", "abc"));
            for (a, b) in [("ab", "c"), ("a", "bc"), ("", "abc")] {
                let key = [Value::str(a), Value::str(b)];
                assert_eq!(probe(&mut p, &[1, 2], &key), vec![row(a, b)]);
            }
            assert!(probe(&mut p, &[1, 2], &[Value::str("abc"), Value::str("")]).is_empty());
        }
    }

    /// With every key in one bucket, probes must still return exactly the
    /// matching rows in insertion order, through tombstones, compaction
    /// and inserts after the rebuild; checked against a scan.
    #[test]
    fn colliding_buckets_return_exact_matches_in_order() {
        use dpc_common::{Rng, SeededRng};
        let mut rng = SeededRng::seed_from_u64(0xC0111DE);
        let mut t = Table::with_colliding_keys();
        let scan = |t: &Table, dst: u32| -> Vec<Tuple> {
            t.iter()
                .filter(|r| r.args()[1] == addr(dst))
                .cloned()
                .collect()
        };
        let mut live: Vec<Tuple> = Vec::new();
        let mut compacted = false;
        for step in 0..600u32 {
            // Mostly inserts, then mostly removals, in 150-step phases, so
            // tombstones pile up past the compaction threshold.
            let removal_odds = if (step / 150) % 2 == 1 { 3 } else { 1 };
            if rng.bounded(4) < removal_odds && !live.is_empty() {
                let r = live.swap_remove(rng.bounded(live.len() as u64) as usize);
                let slots = t.slots.len();
                assert!(t.remove(&r));
                compacted |= t.slots.len() < slots;
            } else {
                let r = route(1, rng.bounded(6) as u32, step);
                assert!(t.insert(r.clone()));
                live.push(r);
            }
            let dst = rng.bounded(7) as u32; // 6 never occurs: empty probes too
            assert_eq!(
                probe(&mut t, &[1], &[addr(dst)]),
                scan(&t, dst),
                "step {step}"
            );
            let idx = t.index(&[1]).unwrap();
            assert!(idx.idx.buckets.len() <= 1, "one shared bucket");
        }
        assert!(compacted, "the churn crossed the compaction threshold");
    }

    /// Bucket keys are fixed across runs and builds.
    #[test]
    fn key_hash_known_answers() {
        assert_eq!(key_hash(&[addr(1), addr(7)]), 0x74a1_916a_f8ba_c329);
        assert_eq!(key_hash(&[Value::str("a.com")]), 0x82b7_3335_f02a_ecce);
        assert_eq!(key_hash(&[]), 0);
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
        assert!(t.index(&[0]).is_some());
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
