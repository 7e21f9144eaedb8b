//! Value-based MergeScan: `MergeUnion[SK](ins, MergeDiff[SK](stable, del))`.
//!
//! Unlike the positional `pdt::PdtMerger`, this merger **requires the
//! sort-key columns of every stable block** (`sk_in`), and performs one or
//! more `Value` comparisons per stable tuple against the delta tables. That
//! is the baseline cost model of the paper: mandatory key-column I/O plus
//! per-tuple (multi-column / string) comparisons.

use crate::Vdt;
use columnar::{ColumnVec, PreparedKey, SkKey, Tuple, Value};
use std::cmp::Ordering;

/// Stateful block-at-a-time value-based merge.
pub struct VdtMerger<'a> {
    vdt: &'a Vdt,
    ins: Vec<(&'a SkKey, &'a Tuple)>,
    del: Vec<&'a SkKey>,
    ins_pos: usize,
    del_pos: usize,
    rid: u64,
}

impl<'a> VdtMerger<'a> {
    /// Start a full-table merge.
    pub fn new(vdt: &'a Vdt) -> Self {
        VdtMerger {
            vdt,
            ins: vdt.inserts().collect(),
            del: vdt.deletes().collect(),
            ins_pos: 0,
            del_pos: 0,
            rid: 0,
        }
    }

    /// Start a merge whose stable input begins at `start_sid` with sort key
    /// `start_key`: both delta iterators are advanced to the key, and the
    /// starting RID is derived by rank-counting the skipped entries.
    pub fn new_ranged(vdt: &'a Vdt, start_sid: u64, start_key: &[Value]) -> Self {
        let ins: Vec<_> = vdt.inserts().collect();
        let del: Vec<_> = vdt.deletes().collect();
        let ins_pos = ins.partition_point(|(k, _)| k.as_slice() < start_key);
        let del_pos = del.partition_point(|k| k.as_slice() < start_key);
        let rid = start_sid + ins_pos as u64 - del_pos as u64;
        VdtMerger {
            vdt,
            ins,
            del,
            ins_pos,
            del_pos,
            rid,
        }
    }

    /// RID of the next tuple this merger will emit.
    pub fn next_rid(&self) -> u64 {
        self.rid
    }

    /// Merge one stable block.
    ///
    /// * `sk_in[j]` — data of the table's j-th sort-key column for this
    ///   block (always required: the value-based cost),
    /// * `cols_in[k]` — data of projected column `proj[k]`,
    /// * inserted tuples contribute their `proj` columns from the insert
    ///   table.
    ///
    /// The per-tuple comparisons no longer materialize a `Value` per row:
    /// each delta head's key is *prepared once* against the block's
    /// column representation ([`PreparedKey`] — for dictionary-coded
    /// sort-key columns that is a binary search done once, then pure `u32`
    /// compares per row), and untouched stable tuples between delta
    /// positions are copied as whole runs.
    pub fn merge_block(
        &mut self,
        len: usize,
        proj: &[usize],
        sk_in: &[ColumnVec],
        cols_in: &[ColumnVec],
        out: &mut [ColumnVec],
    ) {
        debug_assert_eq!(sk_in.len(), self.vdt.sk_cols().len());
        for o in out.iter_mut() {
            o.reserve(len);
        }
        let mut ins_head = self
            .ins
            .get(self.ins_pos)
            .map(|(k, _)| PreparedKey::prepare(k, sk_in));
        let mut del_head = self
            .del
            .get(self.del_pos)
            .map(|k| PreparedKey::prepare(k, sk_in));
        // pending pass-through run [run_start, run_end)
        let (mut run_start, mut run_end) = (0usize, 0usize);
        for i in 0..len {
            // fast path: nothing in the delta tables touches this position
            let ins_before = matches!(
                ins_head.as_ref().map(|pk| pk.cmp_row(sk_in, i)),
                Some(Ordering::Less)
            );
            let del_here = matches!(
                del_head.as_ref().map(|pk| pk.cmp_row(sk_in, i)),
                Some(Ordering::Less | Ordering::Equal)
            );
            if !ins_before && !del_here {
                debug_assert_eq!(run_end, i);
                run_end = i + 1;
                continue;
            }
            // flush the run accumulated so far
            if run_end > run_start {
                for (kk, o) in out.iter_mut().enumerate() {
                    o.extend_range(&cols_in[kk], run_start, run_end);
                }
                self.rid += (run_end - run_start) as u64;
            }
            // MergeUnion: pending inserts with smaller keys go first
            while let Some(pk) = &ins_head {
                if pk.cmp_row(sk_in, i) != Ordering::Less {
                    break;
                }
                let t = self.ins[self.ins_pos].1;
                for (kk, o) in out.iter_mut().enumerate() {
                    o.push(&t[proj[kk]]);
                }
                self.rid += 1;
                self.ins_pos += 1;
                ins_head = self
                    .ins
                    .get(self.ins_pos)
                    .map(|(k, _)| PreparedKey::prepare(k, sk_in));
            }
            // MergeDiff: suppress deleted stable tuples (catching up over
            // delete keys a ranged scan started past)
            let mut deleted = false;
            while let Some(pk) = &del_head {
                let ord = pk.cmp_row(sk_in, i);
                if ord == Ordering::Greater {
                    break;
                }
                self.del_pos += 1;
                del_head = self
                    .del
                    .get(self.del_pos)
                    .map(|k| PreparedKey::prepare(k, sk_in));
                if ord == Ordering::Equal {
                    deleted = true;
                    break;
                }
            }
            if deleted {
                (run_start, run_end) = (i + 1, i + 1);
            } else {
                (run_start, run_end) = (i, i + 1);
            }
        }
        if run_end > run_start {
            for (kk, o) in out.iter_mut().enumerate() {
                o.extend_range(&cols_in[kk], run_start, run_end);
            }
            self.rid += (run_end - run_start) as u64;
        }
    }

    /// Emit all pending inserts beyond the last stable tuple (end of a full
    /// scan), or beyond the scanned range's upper key for ranged scans.
    pub fn drain_inserts(
        &mut self,
        upper: Option<&[Value]>,
        proj: &[usize],
        out: &mut [ColumnVec],
    ) {
        while self.ins_pos < self.ins.len() {
            let (k, t) = self.ins[self.ins_pos];
            if let Some(up) = upper {
                if k.as_slice() > up {
                    break;
                }
            }
            for (kk, o) in out.iter_mut().enumerate() {
                o.push(&t[proj[kk]]);
            }
            self.rid += 1;
            self.ins_pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::{Schema, ValueType};

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Str)])
    }

    fn rows(n: u64) -> Vec<Tuple> {
        (0..n)
            .map(|i| vec![Value::Int(i as i64 * 10), Value::Str(format!("s{i}"))])
            .collect()
    }

    /// The per-value oracle of [`VdtMerger::merge_block`]: materializes a
    /// `Value` key per stable row and pushes output values one
    /// enum-dispatched cell at a time.
    impl VdtMerger<'_> {
        fn merge_block_scalar(
            &mut self,
            len: usize,
            proj: &[usize],
            sk_in: &[ColumnVec],
            cols_in: &[ColumnVec],
            out: &mut [ColumnVec],
        ) {
            debug_assert_eq!(sk_in.len(), self.vdt.sk_cols().len());
            let mut key_buf: Vec<Value> = Vec::with_capacity(sk_in.len());
            for i in 0..len {
                key_buf.clear();
                for c in sk_in {
                    key_buf.push(c.get(i));
                }
                // MergeUnion: pending inserts with smaller keys go first
                while let Some((k, t)) = self.ins.get(self.ins_pos) {
                    if k.as_slice() >= key_buf.as_slice() {
                        break;
                    }
                    for (kk, o) in out.iter_mut().enumerate() {
                        o.push(&t[proj[kk]]);
                    }
                    self.rid += 1;
                    self.ins_pos += 1;
                }
                // MergeDiff: suppress deleted stable tuples
                let mut deleted = false;
                while let Some(k) = self.del.get(self.del_pos) {
                    match k.as_slice().cmp(key_buf.as_slice()) {
                        Ordering::Greater => break,
                        Ordering::Less => self.del_pos += 1,
                        Ordering::Equal => {
                            self.del_pos += 1;
                            deleted = true;
                            break;
                        }
                    }
                }
                if !deleted {
                    for (kk, o) in out.iter_mut().enumerate() {
                        o.push(&cols_in[kk].get(i));
                    }
                    self.rid += 1;
                }
            }
        }
    }

    fn block_merge(vdt: &Vdt, rows: &[Tuple], bs: usize, scalar: bool) -> Vec<Tuple> {
        let proj = [0usize, 1usize];
        let mut merger = VdtMerger::new(vdt);
        let mut out = [
            ColumnVec::new(ValueType::Int),
            ColumnVec::new(ValueType::Str),
        ];
        for start in (0..rows.len()).step_by(bs) {
            let chunk = &rows[start..(start + bs).min(rows.len())];
            let mut sk = [ColumnVec::new(ValueType::Int)];
            let mut cols = [
                ColumnVec::new(ValueType::Int),
                ColumnVec::new(ValueType::Str),
            ];
            for r in chunk {
                sk[0].push(&r[0]);
                cols[0].push(&r[0]);
                cols[1].push(&r[1]);
            }
            if scalar {
                merger.merge_block_scalar(chunk.len(), &proj, &sk, &cols, &mut out);
            } else {
                merger.merge_block(chunk.len(), &proj, &sk, &cols, &mut out);
            }
        }
        merger.drain_inserts(None, &proj, &mut out);
        (0..out[0].len())
            .map(|i| vec![out[0].get(i), out[1].get(i)])
            .collect()
    }

    #[test]
    fn block_merge_matches_row_merge() {
        let mut v = Vdt::new(schema(), vec![0]);
        let base = rows(10);
        v.insert(vec![Value::Int(-5), Value::Str("head".into())]);
        v.insert(vec![Value::Int(35), Value::Str("mid".into())]);
        v.insert(vec![Value::Int(999), Value::Str("tail".into())]);
        v.delete(&[Value::Int(50)]);
        v.modify(&base[7], 1, Value::Str("mod".into()));
        let want = v.merge_rows(&base);
        for bs in [1, 2, 3, 7, 10, 64] {
            assert_eq!(block_merge(&v, &base, bs, false), want, "block size {bs}");
            // the scalar baseline stays a faithful oracle of the same merge
            assert_eq!(block_merge(&v, &base, bs, true), want, "scalar, bs {bs}");
        }
    }

    #[test]
    fn rids_are_consecutive_from_zero() {
        let mut v = Vdt::new(schema(), vec![0]);
        v.insert(vec![Value::Int(-5), Value::Str("x".into())]);
        v.delete(&[Value::Int(0)]);
        let base = rows(4);
        let proj = [0usize];
        let mut m = VdtMerger::new(&v);
        let mut sk = [ColumnVec::new(ValueType::Int)];
        let mut cols = [ColumnVec::new(ValueType::Int)];
        for r in &base {
            sk[0].push(&r[0]);
            cols[0].push(&r[0]);
        }
        let mut out = [ColumnVec::new(ValueType::Int)];
        m.merge_block(base.len(), &proj, &sk, &cols, &mut out);
        m.drain_inserts(None, &proj, &mut out);
        assert_eq!(m.next_rid(), out[0].len() as u64);
    }

    #[test]
    fn ranged_start_computes_rank() {
        let mut v = Vdt::new(schema(), vec![0]);
        v.insert(vec![Value::Int(-5), Value::Str("a".into())]); // before range
        v.insert(vec![Value::Int(15), Value::Str("b".into())]); // before range
        v.delete(&[Value::Int(0)]); // before range
        let _base = rows(10);
        // scan from stable sid 5 (key 50): rid = 5 + 2 ins - 1 del = 6
        let m = VdtMerger::new_ranged(&v, 5, &[Value::Int(50)]);
        assert_eq!(m.next_rid(), 6);
    }

    #[test]
    fn drain_respects_upper_bound() {
        let mut v = Vdt::new(schema(), vec![0]);
        v.insert(vec![Value::Int(42), Value::Str("in".into())]);
        v.insert(vec![Value::Int(99), Value::Str("out".into())]);
        let proj = [0usize];
        let mut m = VdtMerger::new(&v);
        let mut out = [ColumnVec::new(ValueType::Int)];
        m.drain_inserts(Some(&[Value::Int(50)]), &proj, &mut out);
        assert_eq!(out[0].as_int(), &[42]);
    }
}
