//! # Value-based Delta Tree (VDT) — the paper's baseline
//!
//! The classical value-based differential scheme used e.g. by MonetDB
//! (paper §2.1, "VDTs"): a RAM-resident B-tree **insert table** holding all
//! inserted *and modified* tuples in sort-key order, plus a **delete
//! table** holding the sort keys of deleted *or modified* stable tuples.
//! Scans replace every table access by
//!
//! ```text
//! MergeUnion[SK](Scan(ins), MergeDiff[SK](Scan(table), Scan(del)))
//! ```
//!
//! Both merge operators compare *sort-key values*, which is exactly the
//! cost the PDT eliminates: the VDT forces every query to (a) read the
//! sort-key columns from disk even when it does not project them and (b)
//! burn CPU on (possibly multi-column, possibly string) key comparisons per
//! tuple. Figures 17–19 of the paper quantify this gap; pdtbench's
//! `scan_merge` workload measures it (`exec.scan_vdt_ms_p50` against
//! `exec.scan_pdt_ms_p50`).

pub mod merge;
pub mod op;

pub use merge::VdtMerger;

use columnar::{Schema, SkKey, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Value-based differential structure over one ordered table.
#[derive(Debug, Clone)]
pub struct Vdt {
    schema: Schema,
    sk_cols: Vec<usize>,
    /// Inserted and modified tuples, keyed by sort key.
    ins: BTreeMap<SkKey, Tuple>,
    /// Sort keys of deleted or modified stable tuples.
    del: BTreeSet<SkKey>,
}

/// Outcome of [`Vdt::delete`], mirroring the PDT semantics for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VdtDeleteOutcome {
    /// The key only existed in the insert table; it was erased.
    RemovedInsert,
    /// The key denotes a stable tuple; it was added to the delete table.
    AddedDelete,
}

impl Vdt {
    pub fn new(schema: Schema, sk_cols: Vec<usize>) -> Self {
        Vdt {
            schema,
            sk_cols,
            ins: BTreeMap::new(),
            del: BTreeSet::new(),
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn sk_cols(&self) -> &[usize] {
        &self.sk_cols
    }

    /// Number of buffered entries (insert-table rows + delete keys).
    pub fn len(&self) -> usize {
        self.ins.len() + self.del.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }

    /// Net row-count change: inserts visible minus stable tuples hidden.
    pub fn delta_total(&self) -> i64 {
        self.ins.len() as i64 - self.del.len() as i64
    }

    fn sk_of(&self, tuple: &[Value]) -> SkKey {
        self.sk_cols.iter().map(|&c| tuple[c].clone()).collect()
    }

    /// Record the insertion of a new tuple (its sort key must not be
    /// visible).
    pub fn insert(&mut self, tuple: Tuple) {
        debug_assert!(self.schema.validate(&tuple));
        let sk = self.sk_of(&tuple);
        let prev = self.ins.insert(sk, tuple);
        debug_assert!(prev.is_none(), "duplicate sort key insert");
    }

    /// Record a whole batch of inserts in one pass (all sort keys fresh).
    /// The value-based structure has no cheaper bulk form than keyed
    /// insertion — every tuple still pays a key extraction and a tree
    /// probe, which is exactly the per-row tax the paper's PDT removes —
    /// but the batch keeps the op log and WAL at one entry per statement.
    pub fn insert_batch(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        for t in tuples {
            self.insert(t);
        }
    }

    /// Record the deletion of the visible tuple with sort key `sk`.
    pub fn delete(&mut self, sk: &[Value]) -> VdtDeleteOutcome {
        let key: SkKey = sk.to_vec();
        let was_pending = self.ins.remove(&key).is_some();
        if was_pending && !self.del.contains(&key) {
            // a pure pending insert: no stable tuple to hide
            VdtDeleteOutcome::RemovedInsert
        } else {
            self.del.insert(key);
            VdtDeleteOutcome::AddedDelete
        }
    }

    /// Record a modification of the visible tuple `current` (its full
    /// pre-image) setting `col` to `value`. Value-based deltas represent
    /// this as delete(SK) + insert(new tuple) — unless the tuple is already
    /// pending in the insert table, in which case it is updated in place.
    pub fn modify(&mut self, current: &[Value], col: usize, value: Value) {
        let sk = self.sk_of(current);
        if let Some(t) = self.ins.get_mut(&sk) {
            t[col] = value;
            return;
        }
        let mut t = current.to_vec();
        t[col] = value;
        self.del.insert(sk.clone());
        self.ins.insert(sk, t);
    }

    /// Iterate the insert table in sort-key order.
    pub fn inserts(&self) -> impl Iterator<Item = (&SkKey, &Tuple)> {
        self.ins.iter()
    }

    /// Iterate the delete table in sort-key order.
    pub fn deletes(&self) -> impl Iterator<Item = &SkKey> {
        self.del.iter()
    }

    /// Is this sort key pending in the insert table?
    pub fn pending_insert(&self, sk: &[Value]) -> Option<&Tuple> {
        self.ins.get(sk)
    }

    /// Is this sort key marked in the delete table?
    pub fn pending_delete(&self, sk: &[Value]) -> bool {
        self.del.contains(sk)
    }

    /// Approximate heap footprint (RAM budget accounting, as for the PDT).
    pub fn heap_bytes(&self) -> usize {
        let val_bytes = |v: &Value| match v {
            Value::Str(s) => 24 + s.len(),
            _ => 16,
        };
        let key_bytes: usize = self
            .ins
            .keys()
            .chain(self.del.iter())
            .map(|k| k.iter().map(val_bytes).sum::<usize>() + 24)
            .sum();
        let tup_bytes: usize = self
            .ins
            .values()
            .map(|t| t.iter().map(val_bytes).sum::<usize>() + 24)
            .sum();
        key_bytes + tup_bytes
    }

    /// Row-level reference merge (the specification the block-oriented
    /// [`VdtMerger`] is tested against).
    pub fn merge_rows(&self, stable_rows: &[Tuple]) -> Vec<Tuple> {
        let mut out =
            Vec::with_capacity((stable_rows.len() as i64 + self.delta_total()).max(0) as usize);
        let mut ins = self.ins.iter().peekable();
        for row in stable_rows {
            let sk = self.sk_of(row);
            while let Some((k, t)) = ins.peek() {
                if *k < &sk {
                    out.push((*t).clone());
                    ins.next();
                } else {
                    break;
                }
            }
            if !self.del.contains(&sk) {
                out.push(row.clone());
            }
        }
        out.extend(ins.map(|(_, t)| t.clone()));
        out
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

    fn vdt() -> Vdt {
        Vdt::new(schema(), vec![0])
    }

    #[test]
    fn insert_and_merge() {
        let mut v = vdt();
        v.insert(vec![Value::Int(15), Value::Int(99)]);
        let got = v.merge_rows(&rows(3));
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(keys, vec![0, 10, 15, 20]);
    }

    #[test]
    fn delete_stable_and_pending() {
        let mut v = vdt();
        v.insert(vec![Value::Int(15), Value::Int(99)]);
        assert_eq!(v.delete(&[Value::Int(15)]), VdtDeleteOutcome::RemovedInsert);
        assert_eq!(v.delete(&[Value::Int(10)]), VdtDeleteOutcome::AddedDelete);
        let got = v.merge_rows(&rows(3));
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(keys, vec![0, 20]);
    }

    #[test]
    fn modify_is_delete_plus_insert() {
        let mut v = vdt();
        let current = vec![Value::Int(10), Value::Int(1)];
        v.modify(&current, 1, Value::Int(111));
        assert_eq!(v.len(), 2, "del key + ins tuple");
        let got = v.merge_rows(&rows(3));
        assert_eq!(got[1], vec![Value::Int(10), Value::Int(111)]);
        // second modify folds into the pending insert
        v.modify(&got[1], 1, Value::Int(222));
        assert_eq!(v.len(), 2);
        let got = v.merge_rows(&rows(3));
        assert_eq!(got[1][1], Value::Int(222));
    }

    #[test]
    fn delete_of_modified_keeps_tuple_hidden() {
        let mut v = vdt();
        let current = vec![Value::Int(10), Value::Int(1)];
        v.modify(&current, 1, Value::Int(111));
        assert_eq!(v.delete(&[Value::Int(10)]), VdtDeleteOutcome::AddedDelete);
        let got = v.merge_rows(&rows(3));
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(keys, vec![0, 20]);
    }

    #[test]
    fn reinsert_after_delete() {
        let mut v = vdt();
        v.delete(&[Value::Int(10)]);
        v.insert(vec![Value::Int(10), Value::Int(77)]);
        let got = v.merge_rows(&rows(3));
        assert_eq!(got[1], vec![Value::Int(10), Value::Int(77)]);
    }

    #[test]
    fn delta_and_len() {
        let mut v = vdt();
        assert!(v.is_empty());
        v.insert(vec![Value::Int(5), Value::Int(0)]);
        v.delete(&[Value::Int(20)]);
        assert_eq!(v.delta_total(), 0);
        assert_eq!(v.len(), 2);
        assert!(v.heap_bytes() > 0);
    }
}
