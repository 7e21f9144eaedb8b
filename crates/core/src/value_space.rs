//! The PDT value space (VALS).
//!
//! Following eq. (6)–(7) of the paper, every PDT owns a value space
//! consisting of columnar value tables:
//!
//! * an **insert table** `ins<col1..coln>` holding complete newly inserted
//!   tuples,
//! * a **delete table** `del<SK>` holding the *sort-key* values of deleted
//!   stable ("ghost") tuples — these are what `SkRidToSid` compares against
//!   to position later inserts relative to ghosts,
//! * one single-column **modify table** per table column holding modified
//!   values.
//!
//! Offsets handed out by the `add_*` methods are stable for the lifetime of
//! the PDT; in-place update of inserted tuples and modified values (paper
//! §2.1 "Handling of modify and delete ... can then be changed there
//! directly") mutates the stored values without changing offsets. Entries
//! abandoned by delete-of-insert leave garbage that is reclaimed wholesale
//! at Propagate/checkpoint time, just like a real cache-resident PDT.

use columnar::{ColumnVec, Schema, Tuple, Value};
use std::cmp::Ordering;

/// Value tables backing one PDT.
#[derive(Debug, Clone)]
pub struct ValueSpace {
    schema: Schema,
    sk_cols: Vec<usize>,
    /// Insert table: one column per table column.
    ins: Vec<ColumnVec>,
    /// Delete table: one column per sort-key column.
    del: Vec<ColumnVec>,
    /// Modify tables: `mods[c]` holds modified values of table column `c`.
    mods: Vec<ColumnVec>,
}

impl ValueSpace {
    /// Empty value tables for a table of `schema` sorted on `sk_cols`.
    pub fn new(schema: Schema, sk_cols: Vec<usize>) -> Self {
        let ins = schema
            .fields()
            .iter()
            .map(|f| ColumnVec::new(f.vtype))
            .collect();
        let del = sk_cols
            .iter()
            .map(|&c| ColumnVec::new(schema.vtype(c)))
            .collect();
        let mods = schema
            .fields()
            .iter()
            .map(|f| ColumnVec::new(f.vtype))
            .collect();
        ValueSpace {
            schema,
            sk_cols,
            ins,
            del,
            mods,
        }
    }

    /// Schema of the table.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The table's sort-key columns.
    pub fn sk_cols(&self) -> &[usize] {
        &self.sk_cols
    }

    // --- insert table -----------------------------------------------------

    /// Append a full tuple to the insert table; returns its offset.
    pub fn add_insert(&mut self, tuple: &[Value]) -> u64 {
        debug_assert!(self.schema.validate(tuple), "tuple {tuple:?} vs schema");
        let off = self.ins[0].len() as u64;
        for (c, v) in tuple.iter().enumerate() {
            self.ins[c].push(v);
        }
        off
    }

    /// Append a whole batch of inserted tuples column-at-a-time; returns
    /// the offset of the first appended tuple (tuple `i` of the batch lands
    /// at `offset + i`). The typed `extend_range` copy per column is the
    /// batch-staging fast path: one dispatch per column, no per-value enum
    /// branching.
    pub fn add_insert_cols(&mut self, cols: &[ColumnVec]) -> u64 {
        debug_assert_eq!(cols.len(), self.ins.len());
        let off = self.ins[0].len() as u64;
        for (dst, src) in self.ins.iter_mut().zip(cols) {
            dst.extend_range(src, 0, src.len());
        }
        off
    }

    /// Read a full inserted tuple.
    pub fn get_insert(&self, off: u64) -> Tuple {
        self.ins.iter().map(|c| c.get(off as usize)).collect()
    }

    /// Read one column of an inserted tuple.
    pub fn get_insert_col(&self, off: u64, col: usize) -> Value {
        self.ins[col].get(off as usize)
    }

    /// Sort-key values of an inserted tuple.
    pub fn get_insert_sk(&self, off: u64) -> Vec<Value> {
        self.sk_cols
            .iter()
            .map(|&c| self.ins[c].get(off as usize))
            .collect()
    }

    /// Append the inserted tuples of `other` (same schema) at offsets
    /// `offs`, in that order, with one typed gather per column; returns
    /// the offset the first one lands at (tuple `i` lands at `base + i`).
    /// Propagate moves a layer's live inserts down this way.
    pub(crate) fn append_inserts_from(&mut self, other: &ValueSpace, offs: &[usize]) -> u64 {
        let off = self.ins[0].len() as u64;
        for (dst, src) in self.ins.iter_mut().zip(&other.ins) {
            dst.extend_gather(src, offs);
        }
        off
    }

    /// Order of the inserted tuple at `off` against the probe sort key
    /// `key` (`insert.cmp(key)`), compared in place.
    pub(crate) fn cmp_insert_key(&self, off: u64, key: &[Value]) -> Ordering {
        let off = off as usize;
        for (&c, v) in self.sk_cols.iter().zip(key) {
            match self.ins[c].cmp_value(off, v) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Order of the inserted tuple at `ins_off` against the ghost at
    /// delete-table offset `del_off` (`insert.cmp(ghost)`), by sort key,
    /// compared in place. An empty sort key orders nothing: `Equal`.
    pub(crate) fn cmp_insert_delete(&self, ins_off: u64, del_off: u64) -> Ordering {
        let (i, d) = (ins_off as usize, del_off as usize);
        for (&c, del) in self.sk_cols.iter().zip(&self.del) {
            match self.ins[c].cmp_cells(i, del, d) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// In-place modification of an inserted tuple (modify-of-insert).
    pub fn set_insert_col(&mut self, off: u64, col: usize, v: &Value) {
        self.ins[col].set(off as usize, v);
    }

    // --- delete table ------------------------------------------------------

    /// Append the sort key of a deleted stable tuple; returns its offset.
    pub fn add_delete(&mut self, sk_values: &[Value]) -> u64 {
        debug_assert_eq!(sk_values.len(), self.sk_cols.len());
        let off = if self.del.is_empty() {
            // Tables may have an empty sort key in microbenchmarks; the
            // delete table then stores nothing and offsets are synthetic.
            0
        } else {
            self.del[0].len() as u64
        };
        for (c, v) in sk_values.iter().enumerate() {
            self.del[c].push(v);
        }
        off
    }

    /// Append the ghost sort key at offset `off` of `other`'s delete table
    /// (same sort key); returns its offset here.
    pub(crate) fn copy_delete_from(&mut self, other: &ValueSpace, off: u64) -> u64 {
        let Some(first) = self.del.first() else {
            return 0; // empty sort key: synthetic offsets, as in `add_delete`
        };
        let at = first.len() as u64;
        let off = off as usize;
        for (dst, src) in self.del.iter_mut().zip(&other.del) {
            dst.extend_range(src, off, off + 1);
        }
        at
    }

    /// Read the sort key of a deleted (ghost) tuple.
    pub fn get_delete(&self, off: u64) -> Vec<Value> {
        self.del.iter().map(|c| c.get(off as usize)).collect()
    }

    // --- modify tables -----------------------------------------------------

    /// Append a modified value for table column `col`; returns its offset
    /// within that column's modify table.
    pub fn add_modify(&mut self, col: usize, v: &Value) -> u64 {
        let off = self.mods[col].len() as u64;
        self.mods[col].push(v);
        off
    }

    /// Read a modified value.
    pub fn get_modify(&self, col: usize, off: u64) -> Value {
        self.mods[col].get(off as usize)
    }

    /// Overwrite a modified value (modify-of-modify).
    pub fn set_modify(&mut self, col: usize, off: u64, v: &Value) {
        self.mods[col].set(off as usize, v);
    }

    /// Direct typed access to the insert table (merge hot path).
    pub fn insert_column(&self, col: usize) -> &ColumnVec {
        &self.ins[col]
    }

    /// Direct typed access to a modify table (merge hot path).
    pub fn modify_column(&self, col: usize) -> &ColumnVec {
        &self.mods[col]
    }

    /// Approximate heap footprint of the value tables.
    pub fn heap_bytes(&self) -> usize {
        self.ins.iter().map(ColumnVec::heap_bytes).sum::<usize>()
            + self.del.iter().map(ColumnVec::heap_bytes).sum::<usize>()
            + self.mods.iter().map(ColumnVec::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::ValueType;

    fn space() -> ValueSpace {
        ValueSpace::new(
            Schema::from_pairs(&[
                ("store", ValueType::Str),
                ("prod", ValueType::Str),
                ("new", ValueType::Bool),
                ("qty", ValueType::Int),
            ]),
            vec![0, 1],
        )
    }

    #[test]
    fn insert_roundtrip_and_offsets() {
        let mut vs = space();
        let t1: Tuple = vec!["Berlin".into(), "table".into(), true.into(), 10i64.into()];
        let t2: Tuple = vec!["Berlin".into(), "cloth".into(), true.into(), 5i64.into()];
        assert_eq!(vs.add_insert(&t1), 0);
        assert_eq!(vs.add_insert(&t2), 1);
        assert_eq!(vs.get_insert(0), t1);
        assert_eq!(vs.get_insert(1), t2);
        assert_eq!(
            vs.get_insert_sk(1),
            vec![Value::from("Berlin"), Value::from("cloth")]
        );
        assert_eq!(vs.get_insert_col(0, 3), Value::Int(10));
    }

    #[test]
    fn insert_in_place_update() {
        let mut vs = space();
        let off = vs.add_insert(&["Berlin".into(), "cloth".into(), true.into(), 5i64.into()]);
        // the paper's example: i1 (Berlin,cloth) has qty changed to 1 in VALS2
        vs.set_insert_col(off, 3, &Value::Int(1));
        assert_eq!(vs.get_insert_col(off, 3), Value::Int(1));
    }

    #[test]
    fn delete_table_stores_sort_keys_only() {
        let mut vs = space();
        let off = vs.add_delete(&[Value::from("Paris"), Value::from("rug")]);
        assert_eq!(
            vs.get_delete(off),
            vec![Value::from("Paris"), Value::from("rug")]
        );
    }

    #[test]
    fn modify_tables_per_column() {
        let mut vs = space();
        let q0 = vs.add_modify(3, &Value::Int(9));
        assert_eq!(vs.get_modify(3, q0), Value::Int(9));
        vs.set_modify(3, q0, &Value::Int(11));
        assert_eq!(vs.get_modify(3, q0), Value::Int(11));
        // independent offsets per column
        let n0 = vs.add_modify(2, &Value::Bool(true));
        assert_eq!(n0, 0);
    }

    #[test]
    fn heap_bytes_grows() {
        let mut vs = space();
        let before = vs.heap_bytes();
        vs.add_insert(&["Berlin".into(), "table".into(), true.into(), 10i64.into()]);
        assert!(vs.heap_bytes() > before);
    }
}
