//! # Copy-on-write row-store delta — the classic baseline
//!
//! The third differential structure of this workspace, next to the
//! positional [`pdt`](../pdt/index.html) and the value-based tree
//! [`vdt`](../vdt/index.html): a write-optimized, **uncompressed row
//! buffer** folded into the read-optimized store at checkpoint time, as in
//! Krueger et al.'s differential row buffers and the delta-store model of
//! "Teaching an Old Elephant New Tricks". Updates are staged row-at-a-time
//! in sort-key order; scans fold the buffer into the stable image by value
//! comparison, so — like the VDT and unlike the PDT — every query pays
//! sort-key I/O and per-tuple key comparisons.
//!
//! The representation is deliberately different from the VDT's two B-trees:
//! one **sorted vector of slots**, where each slot is either a visible row
//! (`Put`, optionally hiding the stable tuple of the same key) or a
//! `Tombstone` hiding a stable tuple. Commits never mutate a published
//! buffer: the engine's store clones the committed buffer, applies one
//! transaction's ops, and atomically swaps the copy in (copy-on-write),
//! keeping every published version immutable for its readers — snapshot
//! isolation via per-commit versioned runs ([`RowRun`]).
//!
//! Having a third, independently coded implementation of the same update
//! semantics is what makes the engine's differential test harness bite:
//! PDT, VDT and row store driven by identical DML must agree bit-for-bit.

pub mod merge;

pub use merge::RowMerger;

use columnar::{KeyOp, Schema, SkKey, Tuple, Value};
use std::collections::{HashMap, HashSet};

/// One slot of the row buffer: what the buffer says about its sort key.
#[derive(Debug, Clone, PartialEq)]
pub enum Slot {
    /// A row visible at this key. `hides_stable` is true when a stable
    /// tuple with the same key exists and is replaced by this row
    /// (a modify, or an insert over a previously deleted stable key).
    Put { row: Tuple, hides_stable: bool },
    /// The stable tuple with this key is deleted.
    Tombstone,
}

/// The consolidated row buffer: all committed (or staged) updates of one
/// table, as a single key-sorted run of [`Slot`]s.
#[derive(Debug, Clone)]
pub struct RowBuffer {
    schema: Schema,
    sk_cols: Vec<usize>,
    /// Sorted by key, one slot per touched sort key.
    slots: Vec<(SkKey, Slot)>,
    /// Number of `Put { hides_stable: false }` slots (brand-new rows).
    news: usize,
    /// Number of `Tombstone` slots (hidden stable rows).
    tombs: usize,
}

impl RowBuffer {
    pub fn new(schema: Schema, sk_cols: Vec<usize>) -> Self {
        RowBuffer {
            schema,
            sk_cols,
            slots: Vec::new(),
            news: 0,
            tombs: 0,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn sk_cols(&self) -> &[usize] {
        &self.sk_cols
    }

    /// Number of buffered slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Net row-count change: new rows visible minus stable rows hidden.
    pub fn delta_total(&self) -> i64 {
        self.news as i64 - self.tombs as i64
    }

    /// The sorted slot run (scans and the merger walk this).
    pub fn slots(&self) -> &[(SkKey, Slot)] {
        &self.slots
    }

    fn sk_of(&self, tuple: &[Value]) -> SkKey {
        self.sk_cols.iter().map(|&c| tuple[c].clone()).collect()
    }

    fn find(&self, key: &[Value]) -> Result<usize, usize> {
        self.slots.binary_search_by(|(k, _)| k.as_slice().cmp(key))
    }

    /// The buffered row at `key`, if any is visible there.
    pub fn pending_put(&self, key: &[Value]) -> Option<&Tuple> {
        match self.find(key) {
            Ok(i) => match &self.slots[i].1 {
                Slot::Put { row, .. } => Some(row),
                Slot::Tombstone => None,
            },
            Err(_) => None,
        }
    }

    /// Record the insertion of a new tuple (its sort key must not be
    /// visible — but it may re-use the key of a deleted stable tuple).
    pub fn insert(&mut self, tuple: Tuple) {
        debug_assert!(self.schema.validate(&tuple));
        let key = self.sk_of(&tuple);
        match self.find(&key) {
            Ok(i) => {
                debug_assert!(
                    matches!(self.slots[i].1, Slot::Tombstone),
                    "duplicate sort key insert"
                );
                // reinsert over a deleted stable key: the new row takes the
                // stable tuple's place
                self.tombs -= 1;
                self.slots[i].1 = Slot::Put {
                    row: tuple,
                    hides_stable: true,
                };
            }
            Err(i) => {
                self.news += 1;
                self.slots.insert(
                    i,
                    (
                        key,
                        Slot::Put {
                            row: tuple,
                            hides_stable: false,
                        },
                    ),
                );
            }
        }
    }

    /// Record a whole batch of inserts in **one merge pass** over the slot
    /// run. `rows` must be key-sorted with distinct, fresh keys (they may
    /// re-use deleted stable keys). This is the row buffer's batch payoff:
    /// a sorted array absorbs `k` rows in O(buffer + k) instead of the
    /// O(buffer) *per row* that `insert` pays in memmoves.
    pub fn insert_batch(&mut self, rows: Vec<Tuple>) {
        if rows.is_empty() {
            return;
        }
        debug_assert!(
            rows.iter().all(|r| self.schema.validate(r)),
            "batch rows must match the schema"
        );
        debug_assert!(
            rows.windows(2)
                .all(|w| self.sk_of(&w[0]) < self.sk_of(&w[1])),
            "batch must be key-sorted with distinct keys"
        );
        let old = std::mem::take(&mut self.slots);
        let mut merged = Vec::with_capacity(old.len() + rows.len());
        let mut old_it = old.into_iter().peekable();
        for row in rows {
            let key = self.sk_of(&row);
            while old_it.peek().is_some_and(|(k, _)| *k < key) {
                merged.push(old_it.next().unwrap());
            }
            if old_it.peek().is_some_and(|(k, _)| *k == key) {
                let (k, slot) = old_it.next().unwrap();
                debug_assert!(matches!(slot, Slot::Tombstone), "duplicate sort key insert");
                // reinsert over a deleted stable key, as in `insert`
                self.tombs -= 1;
                merged.push((
                    k,
                    Slot::Put {
                        row,
                        hides_stable: true,
                    },
                ));
            } else {
                self.news += 1;
                merged.push((
                    key,
                    Slot::Put {
                        row,
                        hides_stable: false,
                    },
                ));
            }
        }
        merged.extend(old_it);
        self.slots = merged;
    }

    /// Record a batch of deletions in one merge pass (`pres` are the full
    /// pre-images of visible tuples, in key order) — the batch analogue of
    /// [`RowBuffer::delete`], with the same slot transitions.
    pub fn delete_batch(&mut self, pres: &[Tuple]) {
        if pres.is_empty() {
            return;
        }
        debug_assert!(
            pres.windows(2)
                .all(|w| self.sk_of(&w[0]) < self.sk_of(&w[1])),
            "batch must be key-sorted with distinct keys"
        );
        let old = std::mem::take(&mut self.slots);
        let mut merged = Vec::with_capacity(old.len());
        let mut old_it = old.into_iter().peekable();
        for pre in pres {
            let key = self.sk_of(pre);
            while old_it.peek().is_some_and(|(k, _)| *k < key) {
                merged.push(old_it.next().unwrap());
            }
            if old_it.peek().is_some_and(|(k, _)| *k == key) {
                let (k, slot) = old_it.next().unwrap();
                match slot {
                    Slot::Put {
                        hides_stable: false,
                        ..
                    } => {
                        // buffered row with no stable tuple behind it: the
                        // slot simply disappears
                        self.news -= 1;
                    }
                    Slot::Put {
                        hides_stable: true, ..
                    } => {
                        self.tombs += 1;
                        merged.push((k, Slot::Tombstone));
                    }
                    Slot::Tombstone => {
                        debug_assert!(false, "delete of an invisible key");
                        merged.push((k, Slot::Tombstone));
                    }
                }
            } else {
                self.tombs += 1;
                merged.push((key, Slot::Tombstone));
            }
        }
        merged.extend(old_it);
        self.slots = merged;
    }

    /// Record the deletion of the visible tuple with sort key `key`.
    pub fn delete_key(&mut self, key: &[Value]) {
        match self.find(key) {
            Ok(i) => match self.slots[i].1 {
                Slot::Put {
                    hides_stable: false,
                    ..
                } => {
                    // a buffered row with no stable tuple behind it: the
                    // slot simply disappears
                    self.news -= 1;
                    self.slots.remove(i);
                }
                Slot::Put {
                    hides_stable: true, ..
                } => {
                    // the buffered replacement dies, the stable tuple stays
                    // hidden
                    self.tombs += 1;
                    self.slots[i].1 = Slot::Tombstone;
                }
                Slot::Tombstone => debug_assert!(false, "delete of an invisible key"),
            },
            Err(i) => {
                self.tombs += 1;
                self.slots.insert(i, (key.to_vec(), Slot::Tombstone));
            }
        }
    }

    /// Record the deletion of the visible row `row` (key extracted).
    pub fn delete(&mut self, row: &[Value]) {
        let key = self.sk_of(row);
        self.delete_key(&key);
    }

    /// Record `row[col] = value` for the visible row whose pre-image is
    /// `pre`. The row buffer materialises the full updated tuple.
    pub fn modify(&mut self, pre: &[Value], col: usize, value: Value) {
        let key = self.sk_of(pre);
        match self.find(&key) {
            Ok(i) => match &mut self.slots[i].1 {
                Slot::Put { row, .. } => row[col] = value,
                Slot::Tombstone => debug_assert!(false, "modify of an invisible key"),
            },
            Err(i) => {
                let mut row = pre.to_vec();
                row[col] = value;
                self.slots.insert(
                    i,
                    (
                        key,
                        Slot::Put {
                            row,
                            hides_stable: true,
                        },
                    ),
                );
            }
        }
    }

    /// Apply one staged op (commit publication: the engine's store clones
    /// the committed buffer and replays a transaction's ops onto the
    /// copy). Batch-staged statements keep their rows together, so they
    /// replay through the single-merge-pass batch paths.
    pub fn apply(&mut self, op: &KeyOp) {
        match op {
            KeyOp::Insert(t) => self.insert(t.clone()),
            KeyOp::InsertBatch(ts) => self.insert_batch(ts.clone()),
            KeyOp::Delete { pre } => self.delete(pre),
            KeyOp::DeleteBatch { pres } => self.delete_batch(pres),
            KeyOp::Modify { pre, col, value } => self.modify(pre, *col, value.clone()),
        }
    }

    /// Net visible-row change contributed by slots with key `< key`
    /// (the rank correction a ranged scan needs).
    pub fn prefix_delta(&self, key: &[Value]) -> i64 {
        let end = self.slots.partition_point(|(k, _)| k.as_slice() < key);
        self.slots[..end]
            .iter()
            .map(|(_, s)| match s {
                Slot::Put {
                    hides_stable: false,
                    ..
                } => 1i64,
                Slot::Put {
                    hides_stable: true, ..
                } => 0,
                Slot::Tombstone => -1,
            })
            .sum()
    }

    /// Approximate heap footprint (RAM budget accounting, as for PDT/VDT).
    pub fn heap_bytes(&self) -> usize {
        let val_bytes = |v: &Value| match v {
            Value::Str(s) => 24 + s.len(),
            _ => 16,
        };
        self.slots
            .iter()
            .map(|(k, s)| {
                let key = k.iter().map(val_bytes).sum::<usize>() + 24;
                let slot = match s {
                    Slot::Put { row, .. } => row.iter().map(val_bytes).sum::<usize>() + 24,
                    Slot::Tombstone => 0,
                };
                key + slot + std::mem::size_of::<(SkKey, Slot)>()
            })
            .sum()
    }

    /// Row-level reference merge (the specification [`RowMerger`] is tested
    /// against): fold the buffer into `stable_rows` by key.
    pub fn merge_rows(&self, stable_rows: &[Tuple]) -> Vec<Tuple> {
        let mut out =
            Vec::with_capacity((stable_rows.len() as i64 + self.delta_total()).max(0) as usize);
        let mut pos = 0usize;
        for row in stable_rows {
            let key = self.sk_of(row);
            while pos < self.slots.len() && self.slots[pos].0 < key {
                if let Slot::Put { row, .. } = &self.slots[pos].1 {
                    out.push(row.clone());
                }
                pos += 1;
            }
            if pos < self.slots.len() && self.slots[pos].0 == key {
                if let Slot::Put { row, .. } = &self.slots[pos].1 {
                    out.push(row.clone());
                }
                pos += 1;
            } else {
                out.push(row.clone());
            }
        }
        for (_, s) in &self.slots[pos..] {
            if let Slot::Put { row, .. } = s {
                out.push(row.clone());
            }
        }
        out
    }
}

/// One committed transaction's ops, tagged with the buffer version it
/// produced. The engine's store keeps the runs committed since the last
/// checkpoint so that `prepare` can validate a transaction against exactly
/// the runs published after its begin.
#[derive(Debug, Clone)]
pub struct RowRun {
    /// Buffer version this run produced (strictly increasing).
    pub version: u64,
    pub ops: Vec<KeyOp>,
}

impl RowRun {
    /// Approximate heap footprint of the retained ops (RAM budget
    /// accounting — run history must count toward checkpoint thresholds,
    /// or churn workloads whose net buffer stays small grow it unseen).
    pub fn heap_bytes(&self) -> usize {
        let val_bytes = |v: &Value| match v {
            Value::Str(s) => 24 + s.len(),
            _ => 16,
        };
        let tuple_bytes = |t: &Tuple| t.iter().map(val_bytes).sum::<usize>() + 24;
        self.ops
            .iter()
            .map(|op| {
                std::mem::size_of::<KeyOp>()
                    + match op {
                        KeyOp::Insert(t) => tuple_bytes(t),
                        KeyOp::InsertBatch(ts) => ts.iter().map(tuple_bytes).sum(),
                        KeyOp::Delete { pre } => tuple_bytes(pre),
                        KeyOp::DeleteBatch { pres } => pres.iter().map(tuple_bytes).sum(),
                        KeyOp::Modify { pre, value, .. } => tuple_bytes(pre) + val_bytes(value),
                    }
            })
            .sum()
    }
}

/// The write footprint of a set of concurrent runs, for prepare-time
/// write-write validation. This is the run-history analogue of the PDT's
/// TZ-set overlap test and the VDT's value-wise pending comparison —
/// deliberately a third mechanism, with the same decisions:
///
/// * insert vs concurrent insert of the same key → conflict,
/// * delete vs concurrent delete or modify of the same tuple → conflict,
/// * modify vs concurrent delete, or concurrent modify of the *same
///   column* → conflict; disjoint-column modifies reconcile.
#[derive(Debug, Default)]
pub struct ConflictSet {
    inserted: HashSet<SkKey>,
    deleted: HashSet<SkKey>,
    modified: HashMap<SkKey, HashSet<usize>>,
}

impl ConflictSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty() && self.modified.is_empty()
    }

    /// Fold one committed run into the footprint. Batch ops contribute one
    /// footprint key per contained row.
    pub fn add_run(&mut self, run: &RowRun, sk_cols: &[usize]) {
        let key_of = |t: &Tuple| -> SkKey { sk_cols.iter().map(|&c| t[c].clone()).collect() };
        for op in &run.ops {
            match op {
                KeyOp::Insert(t) => {
                    self.inserted.insert(key_of(t));
                }
                KeyOp::InsertBatch(ts) => {
                    self.inserted.extend(ts.iter().map(key_of));
                }
                KeyOp::Delete { pre } => {
                    self.deleted.insert(key_of(pre));
                }
                KeyOp::DeleteBatch { pres } => {
                    self.deleted.extend(pres.iter().map(key_of));
                }
                KeyOp::Modify { pre, col, .. } => {
                    self.modified.entry(key_of(pre)).or_default().insert(*col);
                }
            }
        }
    }

    /// Validate one of *our* staged ops against the concurrent footprint.
    /// A batch op validates item-wise: any clashing row fails the whole op
    /// (and with it the transaction), exactly as a row loop would.
    pub fn check(&self, op: &KeyOp, sk_cols: &[usize]) -> Result<(), String> {
        let key_of = |t: &Tuple| -> SkKey { sk_cols.iter().map(|&c| t[c].clone()).collect() };
        match op {
            KeyOp::Insert(t) => self.check_insert(key_of(t)),
            KeyOp::InsertBatch(ts) => ts.iter().try_for_each(|t| self.check_insert(key_of(t))),
            KeyOp::Delete { pre } => self.check_delete(key_of(pre)),
            KeyOp::DeleteBatch { pres } => pres
                .iter()
                .try_for_each(|pre| self.check_delete(key_of(pre))),
            KeyOp::Modify { pre, col, .. } => self.check_modify(key_of(pre), *col),
        }
    }

    fn check_insert(&self, key: SkKey) -> Result<(), String> {
        if self.inserted.contains(&key) {
            return Err(format!("concurrent insert of sort key {key:?}"));
        }
        Ok(())
    }

    fn check_delete(&self, key: SkKey) -> Result<(), String> {
        if self.deleted.contains(&key) {
            return Err(format!("sort key {key:?} deleted by both transactions"));
        }
        if self.modified.contains_key(&key) {
            return Err(format!(
                "delete of sort key {key:?} concurrently modified by another \
                 transaction"
            ));
        }
        Ok(())
    }

    fn check_modify(&self, key: SkKey, col: usize) -> Result<(), String> {
        if self.deleted.contains(&key) {
            return Err(format!(
                "modify of sort key {key:?} concurrently deleted by another \
                 transaction"
            ));
        }
        if let Some(cols) = self.modified.get(&key) {
            if cols.contains(&col) {
                return Err(format!(
                    "column {col} of sort key {key:?} modified by both transactions"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::ValueType;

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)])
    }

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
            .collect()
    }

    fn buf() -> RowBuffer {
        RowBuffer::new(schema(), vec![0])
    }

    #[test]
    fn insert_and_merge() {
        let mut b = buf();
        b.insert(vec![Value::Int(15), Value::Int(99)]);
        let got = b.merge_rows(&rows(3));
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(keys, vec![0, 10, 15, 20]);
        assert_eq!(b.delta_total(), 1);
    }

    #[test]
    fn delete_stable_and_buffered() {
        let mut b = buf();
        b.insert(vec![Value::Int(15), Value::Int(99)]);
        b.delete(&[Value::Int(15), Value::Int(99)]); // buffered row: slot vanishes
        assert!(b.is_empty());
        b.delete_key(&[Value::Int(10)]); // stable row: tombstone
        let got = b.merge_rows(&rows(3));
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(keys, vec![0, 20]);
        assert_eq!(b.delta_total(), -1);
    }

    #[test]
    fn modify_materialises_replacement_row() {
        let mut b = buf();
        let pre = vec![Value::Int(10), Value::Int(1)];
        b.modify(&pre, 1, Value::Int(111));
        assert_eq!(b.len(), 1, "one slot, not del+ins");
        assert_eq!(b.delta_total(), 0);
        let got = b.merge_rows(&rows(3));
        assert_eq!(got[1], vec![Value::Int(10), Value::Int(111)]);
        // second modify folds into the buffered row
        b.modify(&got[1], 1, Value::Int(222));
        assert_eq!(b.len(), 1);
        assert_eq!(b.merge_rows(&rows(3))[1][1], Value::Int(222));
    }

    #[test]
    fn delete_of_modified_leaves_tombstone() {
        let mut b = buf();
        b.modify(&[Value::Int(10), Value::Int(1)], 1, Value::Int(111));
        b.delete_key(&[Value::Int(10)]);
        let got = b.merge_rows(&rows(3));
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(keys, vec![0, 20]);
        assert_eq!(b.delta_total(), -1);
    }

    #[test]
    fn reinsert_after_delete_hides_stable() {
        let mut b = buf();
        b.delete_key(&[Value::Int(10)]);
        b.insert(vec![Value::Int(10), Value::Int(77)]);
        let got = b.merge_rows(&rows(3));
        assert_eq!(got[1], vec![Value::Int(10), Value::Int(77)]);
        assert_eq!(b.delta_total(), 0);
    }

    #[test]
    fn prefix_delta_counts_rank_correction() {
        let mut b = buf();
        b.insert(vec![Value::Int(-5), Value::Int(0)]); // +1 before everything
        b.delete_key(&[Value::Int(0)]); // -1
        b.modify(&[Value::Int(10), Value::Int(1)], 1, Value::Int(9)); // 0
        b.insert(vec![Value::Int(15), Value::Int(0)]); // +1
        assert_eq!(b.prefix_delta(&[Value::Int(0)]), 1);
        assert_eq!(b.prefix_delta(&[Value::Int(10)]), 0);
        assert_eq!(b.prefix_delta(&[Value::Int(20)]), 1);
    }

    #[test]
    fn ops_replay_to_same_buffer() {
        let ops = [
            KeyOp::Insert(vec![Value::Int(5), Value::Int(50)]),
            KeyOp::Delete {
                pre: vec![Value::Int(10), Value::Int(1)],
            },
            KeyOp::Modify {
                pre: vec![Value::Int(20), Value::Int(2)],
                col: 1,
                value: Value::Int(99),
            },
        ];
        let mut direct = buf();
        direct.insert(vec![Value::Int(5), Value::Int(50)]);
        direct.delete_key(&[Value::Int(10)]);
        direct.modify(&[Value::Int(20), Value::Int(2)], 1, Value::Int(99));
        let mut replayed = buf();
        for op in &ops {
            replayed.apply(op);
        }
        assert_eq!(replayed.merge_rows(&rows(3)), direct.merge_rows(&rows(3)));
    }

    #[test]
    fn conflict_set_rules() {
        let sk = [0usize];
        let pre = vec![Value::Int(10), Value::Int(1), Value::Int(2)];
        let mut cs = ConflictSet::new();
        cs.add_run(
            &RowRun {
                version: 1,
                ops: vec![
                    KeyOp::Insert(vec![Value::Int(5), Value::Int(0), Value::Int(0)]),
                    KeyOp::Modify {
                        pre: pre.clone(),
                        col: 1,
                        value: Value::Int(11),
                    },
                    KeyOp::Delete {
                        pre: vec![Value::Int(30), Value::Int(3), Value::Int(4)],
                    },
                ],
            },
            &sk,
        );
        // insert vs insert
        assert!(cs
            .check(
                &KeyOp::Insert(vec![Value::Int(5), Value::Int(9), Value::Int(9)]),
                &sk
            )
            .is_err());
        // delete vs modify
        assert!(cs.check(&KeyOp::Delete { pre: pre.clone() }, &sk).is_err());
        // delete vs delete
        assert!(cs
            .check(
                &KeyOp::Delete {
                    pre: vec![Value::Int(30), Value::Int(3), Value::Int(4)],
                },
                &sk
            )
            .is_err());
        // same-column modify
        assert!(cs
            .check(
                &KeyOp::Modify {
                    pre: pre.clone(),
                    col: 1,
                    value: Value::Int(12),
                },
                &sk
            )
            .is_err());
        // disjoint-column modify reconciles
        assert!(cs
            .check(
                &KeyOp::Modify {
                    pre: pre.clone(),
                    col: 2,
                    value: Value::Int(22),
                },
                &sk
            )
            .is_ok());
        // modify vs delete
        assert!(cs
            .check(
                &KeyOp::Modify {
                    pre: vec![Value::Int(30), Value::Int(3), Value::Int(4)],
                    col: 1,
                    value: Value::Int(0),
                },
                &sk
            )
            .is_err());
        // untouched key sails through
        assert!(cs
            .check(
                &KeyOp::Insert(vec![Value::Int(77), Value::Int(0), Value::Int(0)]),
                &sk
            )
            .is_ok());
    }

    #[test]
    fn insert_batch_matches_row_at_a_time() {
        // covers fresh keys interleaved with existing slots AND reinsert
        // over a tombstone — the two transitions `insert` performs
        let mut batched = buf();
        batched.delete_key(&[Value::Int(10)]);
        let mut looped = batched.clone();
        let fresh: Vec<Tuple> = vec![
            vec![Value::Int(-5), Value::Int(0)],
            vec![Value::Int(5), Value::Int(1)],
            vec![Value::Int(10), Value::Int(2)], // over the tombstone
            vec![Value::Int(35), Value::Int(3)],
        ];
        batched.insert_batch(fresh.clone());
        for r in fresh {
            looped.insert(r);
        }
        assert_eq!(batched.slots(), looped.slots());
        assert_eq!(batched.delta_total(), looped.delta_total());
        assert_eq!(batched.merge_rows(&rows(3)), looped.merge_rows(&rows(3)));
    }

    #[test]
    fn delete_batch_matches_row_at_a_time() {
        // covers all three transitions: buffered-new slot vanishes,
        // buffered replacement leaves a tombstone, stable key tombstoned
        let mut batched = buf();
        batched.insert(vec![Value::Int(5), Value::Int(1)]);
        batched.modify(&[Value::Int(10), Value::Int(1)], 1, Value::Int(9));
        let mut looped = batched.clone();
        let pres: Vec<Tuple> = vec![
            vec![Value::Int(5), Value::Int(1)],
            vec![Value::Int(10), Value::Int(9)],
            vec![Value::Int(20), Value::Int(2)],
        ];
        batched.delete_batch(&pres);
        for pre in &pres {
            looped.delete(pre);
        }
        assert_eq!(batched.slots(), looped.slots());
        assert_eq!(batched.delta_total(), looped.delta_total());
        assert_eq!(batched.merge_rows(&rows(3)), looped.merge_rows(&rows(3)));
    }

    #[test]
    fn batch_ops_replay_like_loops() {
        let mut direct = buf();
        direct.insert_batch(vec![
            vec![Value::Int(5), Value::Int(0)],
            vec![Value::Int(15), Value::Int(1)],
        ]);
        direct.delete_batch(&[vec![Value::Int(10), Value::Int(1)]]);
        let ops = [
            KeyOp::InsertBatch(vec![
                vec![Value::Int(5), Value::Int(0)],
                vec![Value::Int(15), Value::Int(1)],
            ]),
            KeyOp::DeleteBatch {
                pres: vec![vec![Value::Int(10), Value::Int(1)]],
            },
        ];
        let mut replayed = buf();
        for op in &ops {
            replayed.apply(op);
        }
        assert_eq!(replayed.slots(), direct.slots());
        // and the conflict footprint sees every batched row
        let sk = [0usize];
        let mut cs = ConflictSet::new();
        cs.add_run(
            &RowRun {
                version: 1,
                ops: ops.to_vec(),
            },
            &sk,
        );
        assert!(cs
            .check(&KeyOp::Insert(vec![Value::Int(15), Value::Int(9)]), &sk)
            .is_err());
        assert!(cs
            .check(
                &KeyOp::DeleteBatch {
                    pres: vec![vec![Value::Int(10), Value::Int(1)]],
                },
                &sk
            )
            .is_err());
        assert!(cs
            .check(&KeyOp::Insert(vec![Value::Int(99), Value::Int(9)]), &sk)
            .is_ok());
    }

    #[test]
    fn heap_bytes_grows() {
        let mut b = buf();
        assert_eq!(b.heap_bytes(), 0);
        b.insert(vec![Value::Int(5), Value::Int(0)]);
        let one = b.heap_bytes();
        assert!(one > 0);
        b.delete_key(&[Value::Int(20)]);
        assert!(b.heap_bytes() > one);
    }
}
