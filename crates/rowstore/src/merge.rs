//! Row-buffer MergeScan: fold the sorted slot run into a stable scan.
//!
//! Like the value-based [`vdt`](../../vdt/index.html) merger — and unlike
//! the positional PDT one — this walks the buffer by **sort-key value**, so
//! scans must read the table's sort-key columns (`sk_in`) and compare keys
//! per stable tuple. The mechanics differ from the VDT's MergeUnion /
//! MergeDiff pair, though: a single cursor over the slot run suffices,
//! because each slot already consolidates everything the buffer knows
//! about its key (replacement row, new row, or tombstone).

use crate::{RowBuffer, Slot};
use columnar::{ColumnVec, PreparedKey, Value};
use std::cmp::Ordering;

/// Stateful block-at-a-time row-buffer merge.
pub struct RowMerger<'a> {
    buf: &'a RowBuffer,
    /// Cursor into the sorted slot run.
    pos: usize,
    rid: u64,
}

impl<'a> RowMerger<'a> {
    /// Start a full-table merge.
    pub fn new(buf: &'a RowBuffer) -> Self {
        RowMerger {
            buf,
            pos: 0,
            rid: 0,
        }
    }

    /// Start a merge whose stable input begins at `start_sid` with sort key
    /// `start_key`: the cursor skips every slot before the key, and the
    /// starting RID is the rank of the range start in the merged image.
    pub fn new_ranged(buf: &'a RowBuffer, start_sid: u64, start_key: &[Value]) -> Self {
        let pos = buf
            .slots()
            .partition_point(|(k, _)| k.as_slice() < start_key);
        let rid = (start_sid as i64 + buf.prefix_delta(start_key)) as u64;
        RowMerger { buf, pos, rid }
    }

    /// RID of the next tuple this merger will emit.
    pub fn next_rid(&self) -> u64 {
        self.rid
    }

    fn emit_row(row: &[Value], proj: &[usize], out: &mut [ColumnVec]) {
        for (k, o) in out.iter_mut().enumerate() {
            o.push(&row[proj[k]]);
        }
    }

    /// Merge one stable block.
    ///
    /// * `sk_in[j]` — data of the table's j-th sort-key column for this
    ///   block (always required: the value-based cost),
    /// * `cols_in[k]` — data of projected column `proj[k]`,
    /// * buffered rows contribute their `proj` columns from the slot run.
    ///
    /// As in the VDT merger, the slot-run head's key is *prepared once*
    /// against the block's column representation ([`PreparedKey`]) and
    /// compared per row with native comparisons (pure `u32` compares for
    /// dictionary-coded sort-key columns); untouched stable tuples between
    /// slot positions are copied as whole runs.
    pub fn merge_block(
        &mut self,
        len: usize,
        proj: &[usize],
        sk_in: &[ColumnVec],
        cols_in: &[ColumnVec],
        out: &mut [ColumnVec],
    ) {
        debug_assert_eq!(sk_in.len(), self.buf.sk_cols().len());
        for o in out.iter_mut() {
            o.reserve(len);
        }
        let slots = self.buf.slots();
        let mut head = slots
            .get(self.pos)
            .map(|(k, _)| PreparedKey::prepare(k, sk_in));
        // pending pass-through run [run_start, run_end)
        let (mut run_start, mut run_end) = (0usize, 0usize);
        for i in 0..len {
            // fast path: the slot run has nothing at or before this row
            let head_cmp = head.as_ref().map(|pk| pk.cmp_row(sk_in, i));
            if !matches!(head_cmp, Some(Ordering::Less | Ordering::Equal)) {
                debug_assert_eq!(run_end, i);
                run_end = i + 1;
                continue;
            }
            // flush the run accumulated so far
            if run_end > run_start {
                for (k, o) in out.iter_mut().enumerate() {
                    o.extend_range(&cols_in[k], run_start, run_end);
                }
                self.rid += (run_end - run_start) as u64;
            }
            // slots strictly before this key: brand-new buffered rows
            // (keys of replacing/tombstoning slots always meet a stable
            // tuple at equality below)
            let mut replaced = false;
            while let Some(pk) = &head {
                let ord = pk.cmp_row(sk_in, i);
                if ord == Ordering::Greater {
                    break;
                }
                if let Slot::Put { row, .. } = &slots[self.pos].1 {
                    Self::emit_row(row, proj, out);
                    self.rid += 1;
                }
                self.pos += 1;
                head = slots
                    .get(self.pos)
                    .map(|(k, _)| PreparedKey::prepare(k, sk_in));
                if ord == Ordering::Equal {
                    // that slot replaced or hid the stable tuple
                    replaced = true;
                    break;
                }
            }
            if replaced {
                (run_start, run_end) = (i + 1, i + 1);
            } else {
                // untouched stable tuple: starts the next run
                (run_start, run_end) = (i, i + 1);
            }
        }
        if run_end > run_start {
            for (k, o) in out.iter_mut().enumerate() {
                o.extend_range(&cols_in[k], run_start, run_end);
            }
            self.rid += (run_end - run_start) as u64;
        }
    }

    /// Emit all buffered rows beyond the last stable tuple (end of a full
    /// scan), or beyond the scanned range's upper key for ranged scans.
    pub fn drain_inserts(
        &mut self,
        upper: Option<&[Value]>,
        proj: &[usize],
        out: &mut [ColumnVec],
    ) {
        let slots = self.buf.slots();
        while let Some((k, s)) = slots.get(self.pos) {
            if let Some(up) = upper {
                if k.as_slice() > up {
                    break;
                }
            }
            if let Slot::Put { row, .. } = s {
                Self::emit_row(row, proj, out);
                self.rid += 1;
            }
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::{Schema, Tuple, ValueType};

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Str)])
    }

    fn rows(n: u64) -> Vec<Tuple> {
        (0..n)
            .map(|i| vec![Value::Int(i as i64 * 10), Value::Str(format!("s{i}"))])
            .collect()
    }

    fn block_merge(buf: &RowBuffer, rows: &[Tuple], bs: usize) -> Vec<Tuple> {
        let proj = [0usize, 1usize];
        let mut merger = RowMerger::new(buf);
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
            merger.merge_block(chunk.len(), &proj, &sk, &cols, &mut out);
        }
        merger.drain_inserts(None, &proj, &mut out);
        (0..out[0].len())
            .map(|i| vec![out[0].get(i), out[1].get(i)])
            .collect()
    }

    #[test]
    fn block_merge_matches_row_merge() {
        let mut b = RowBuffer::new(schema(), vec![0]);
        let base = rows(10);
        b.insert(vec![Value::Int(-5), Value::Str("head".into())]);
        b.insert(vec![Value::Int(35), Value::Str("mid".into())]);
        b.insert(vec![Value::Int(999), Value::Str("tail".into())]);
        b.delete_key(&[Value::Int(50)]);
        b.modify(&base[7], 1, Value::Str("mod".into()));
        // reinsert over a deleted stable key
        b.delete_key(&[Value::Int(20)]);
        b.insert(vec![Value::Int(20), Value::Str("again".into())]);
        let want = b.merge_rows(&base);
        for bs in [1, 2, 3, 7, 10, 64] {
            assert_eq!(block_merge(&b, &base, bs), want, "block size {bs}");
        }
    }

    #[test]
    fn rids_are_consecutive_from_zero() {
        let mut b = RowBuffer::new(schema(), vec![0]);
        b.insert(vec![Value::Int(-5), Value::Str("x".into())]);
        b.delete_key(&[Value::Int(0)]);
        let base = rows(4);
        let proj = [0usize];
        let mut m = RowMerger::new(&b);
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
        let mut b = RowBuffer::new(schema(), vec![0]);
        b.insert(vec![Value::Int(-5), Value::Str("a".into())]); // +1 before range
        b.insert(vec![Value::Int(15), Value::Str("b".into())]); // +1 before range
        b.delete_key(&[Value::Int(0)]); // -1 before range
        b.modify(&rows(10)[3], 1, Value::Str("m".into())); // ±0 before range
                                                           // scan from stable sid 5 (key 50): rid = 5 + 2 - 1 = 6
        let m = RowMerger::new_ranged(&b, 5, &[Value::Int(50)]);
        assert_eq!(m.next_rid(), 6);
    }

    #[test]
    fn drain_respects_upper_bound() {
        let mut b = RowBuffer::new(schema(), vec![0]);
        b.insert(vec![Value::Int(42), Value::Str("in".into())]);
        b.insert(vec![Value::Int(99), Value::Str("out".into())]);
        let proj = [0usize];
        let mut m = RowMerger::new(&b);
        let mut out = [ColumnVec::new(ValueType::Int)];
        m.drain_inserts(Some(&[Value::Int(50)]), &proj, &mut out);
        assert_eq!(out[0].as_int(), &[42]);
    }
}
