//! Checkpointing: materialising a PDT into a new stable image.
//!
//! The paper (§2, "Checkpointing"): when the differential structure exceeds
//! a threshold, a new image of the table is created with all buffered
//! updates applied; query processing then switches to the new image and the
//! applied updates are pruned. Our stable images are immutable
//! [`StableTable`]s, so a checkpoint builds a fresh table: the merged rows
//! of a block range spliced between the blocks it leaves alone — the whole
//! image when the range is every block. SIDs are renumbered past the merged
//! range (RID == SID again once nothing is left unfolded) and the sparse
//! index is rebuilt for the new image.

use crate::merge::PdtMerger;
use crate::tree::Pdt;
use columnar::{ColumnVec, ColumnarError, IoTracker, StableTable, TableBuilder, Tuple};

/// Row-level merge of `pdt` over `stable_rows` (the full visible image).
///
/// This is the *specification-grade* merge used by checkpointing and tests;
/// the block-oriented [`crate::merge::PdtMerger`] is the scan-path
/// implementation (they are cross-checked by property tests).
pub fn merge_rows(stable_rows: &[Tuple], pdt: &Pdt) -> Vec<Tuple> {
    let mut out =
        Vec::with_capacity((stable_rows.len() as i64 + pdt.delta_total()).max(0) as usize);
    let mut cur = pdt.begin();
    let mut sid = 0u64;
    let n = stable_rows.len() as u64;
    while sid <= n {
        // apply all updates positioned at `sid`
        let mut deleted = false;
        let mut mods: Vec<(usize, u64)> = Vec::new();
        while let Some(e) = pdt.entry(&cur) {
            if e.sid != sid {
                break;
            }
            if e.upd.is_ins() {
                out.push(pdt.vals().get_insert(e.upd.val));
            } else if e.upd.is_del() {
                deleted = true;
            } else {
                mods.push((e.upd.col_no() as usize, e.upd.val));
            }
            pdt.advance(&mut cur);
        }
        if sid == n {
            break;
        }
        if !deleted {
            let mut row = stable_rows[sid as usize].clone();
            for (col, off) in mods {
                row[col] = pdt.vals().get_modify(col, off);
            }
            out.push(row);
        }
        sid += 1;
    }
    out
}

/// Build the next stable image: the whole-partition checkpoint is the
/// range checkpoint over every block ([`checkpoint_range`]).
pub fn checkpoint_table(
    stable: &StableTable,
    pdt: &Pdt,
    io: &IoTracker,
) -> Result<StableTable, ColumnarError> {
    checkpoint_range(stable, pdt, 0, stable.num_blocks(), io)
}

/// Range-scoped checkpoint merge: fold the PDT's updates addressing
/// stable blocks `[b0, b1)` into fresh blocks spliced between the
/// untouched neighbours ([`TableBuilder::splice`] — sub-partition
/// compaction never rewrites the cold remainder of the image). The range
/// is merged block by block with the kernelized [`PdtMerger`] and each
/// merged block goes straight into the builder: tuples are never
/// materialized and at most one decoded block is held at a time. When
/// `b1` is the last block the append gap at `row_count` is drained too, so
/// trailing inserts fold — `[0, 0)` of an empty image folds exactly those.
/// Updates outside the range stay in the PDT (the caller rebases them —
/// see the txn crate's `rebase_pdt_outside_range`).
///
/// Dictionary-coded string blocks stay on the `u32` path through the
/// merge; what the builder encodes them against depends on whether the
/// range keeps any block (see [`TableBuilder::splice`]). The I/O of the
/// range scan is charged to `io` (checkpoints are real work).
pub fn checkpoint_range(
    stable: &StableTable,
    pdt: &Pdt,
    b0: usize,
    b1: usize,
    io: &IoTracker,
) -> Result<StableTable, ColumnarError> {
    let ncols = stable.num_columns();
    let proj: Vec<usize> = (0..ncols).collect();
    let mut builder = TableBuilder::splice(stable, b0, b1)?;
    let mut merger = PdtMerger::new(pdt, stable.block_range(b0).0);
    // decode and merge buffers live across blocks: the builder copies what
    // it is given, so nothing here is allocated per block
    let fresh = || -> Vec<ColumnVec> {
        let fields = stable.schema().fields().iter();
        fields.map(|f| ColumnVec::new(f.vtype)).collect()
    };
    let (mut cols, mut spare) = (fresh(), fresh());
    for b in b0..b1 {
        for (c, col) in cols.iter_mut().enumerate() {
            stable.read_block_into(c, b, io, col)?;
        }
        let (start, end) = stable.block_range(b);
        merger.merge_block_owned(start, (end - start) as usize, &proj, &mut cols, &mut spare);
        builder.append_cols(&cols)?;
    }
    if b1 == stable.num_blocks() {
        let mut tail = fresh();
        merger.drain_inserts_at(stable.row_count(), &proj, &mut tail);
        builder.append_cols(&tail)?;
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::{Schema, TableMeta, TableOptions, Value, ValueType};

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)])
    }

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i * 100)])
            .collect()
    }

    #[test]
    fn merge_rows_applies_everything() {
        let mut p = Pdt::new(schema(), vec![0]);
        let base = rows(5);
        p.add_insert(2, 2, &[Value::Int(15), Value::Int(1500)]);
        p.add_delete(4, &[Value::Int(3)]); // stable 3 now at rid 4
        p.add_modify(0, 1, &Value::Int(-1));
        let got = merge_rows(&base, &p);
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(keys, vec![0, 1, 15, 2, 4]);
        assert_eq!(got[0][1], Value::Int(-1));
    }

    #[test]
    fn checkpoint_resets_positions() {
        let base = rows(100);
        let meta = TableMeta::new("t", schema(), vec![0]);
        let t0 = StableTable::bulk_load(
            meta,
            TableOptions {
                block_rows: 16,
                compressed: true,
            },
            &base,
        )
        .unwrap();
        let mut p = Pdt::new(schema(), vec![0]);
        p.add_delete(10, &[Value::Int(10)]);
        // append a new largest key at the end (rid 99 after the delete)
        p.add_insert(100, 99, &[Value::Int(495), Value::Int(0)]);
        let io = IoTracker::new();
        let t1 = checkpoint_table(&t0, &p, &io).unwrap();
        assert_eq!(t1.row_count(), 100); // -1 +1
                                         // new image equals the merged rows, re-addressed from SID 0
        let fresh = t1.scan_all(&io).unwrap();
        assert_eq!(fresh, merge_rows(&base, &p));
        // sparse index rebuilt: lookup works against the new image
        let r = t1.sid_range(Some(&[Value::Int(495)]), Some(&[Value::Int(495)]));
        assert!(!r.is_empty());
    }

    #[test]
    fn checkpoint_range_matches_full_merge_on_the_window() {
        let base: Vec<Tuple> = (0..100)
            .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
            .collect();
        let meta = TableMeta::new("t", schema(), vec![0]);
        let t0 = StableTable::bulk_load(
            meta,
            TableOptions {
                block_rows: 16,
                compressed: true,
            },
            &base,
        )
        .unwrap();
        let mut p = Pdt::new(schema(), vec![0]);
        // updates inside blocks 2..4 (sids 32..64) and outside them
        p.add_delete(40, &[Value::Int(400)]);
        p.add_insert(50, 49, &[Value::Int(495), Value::Int(1)]);
        p.add_modify(35, 1, &Value::Int(-1));
        p.add_delete(5, &[Value::Int(50)]); // prefix: untouched by the range
        p.add_insert(100, 99, &[Value::Int(9990), Value::Int(0)]); // tail gap
        let io = IoTracker::new();
        let got = checkpoint_range(&t0, &p, 2, 4, &io).unwrap();
        // expectation: the full spec merge restricted to what came from
        // stable rows 32..64 (prefix loses a row, so merged rids shift),
        // between the untouched neighbours
        let full = merge_rows(&base, &p);
        let mut want = base[..32].to_vec();
        want.extend(
            full.iter()
                .filter(|r| (320..640).contains(&r[0].as_int()))
                .cloned(),
        );
        want.extend_from_slice(&base[64..]);
        assert_eq!(got.scan_all(&io).unwrap(), want);
        // last-block range drains the append gap
        let nb = t0.num_blocks();
        let got = checkpoint_range(&t0, &p, nb - 1, nb, &io).unwrap();
        let last = got.get_row(got.row_count() - 1, &io).unwrap();
        assert_eq!(last[0], Value::Int(9990), "trailing insert folds");
        // the whole-table range is the full checkpoint, block for block
        let ranged = checkpoint_range(&t0, &p, 0, nb, &io).unwrap();
        assert_eq!(ranged.scan_all(&io).unwrap(), full);
        // an image without blocks folds its append gap through [0, 0)
        let empty = StableTable::bulk_load(t0.meta().clone(), t0.options(), &[]).unwrap();
        let mut tail = Pdt::new(schema(), vec![0]);
        tail.add_insert(0, 0, &[Value::Int(7), Value::Int(70)]);
        let grown = checkpoint_range(&empty, &tail, 0, 0, &io).unwrap();
        assert_eq!(grown.scan_all(&io).unwrap(), merge_rows(&[], &tail));
    }

    #[test]
    fn merge_rows_empty_pdt_is_identity() {
        let p = Pdt::new(schema(), vec![0]);
        let base = rows(7);
        assert_eq!(merge_rows(&base, &p), base);
    }

    #[test]
    fn merge_rows_trailing_inserts() {
        let mut p = Pdt::new(schema(), vec![0]);
        let base = rows(3);
        p.add_insert(3, 3, &[Value::Int(99), Value::Int(0)]);
        p.add_insert(3, 4, &[Value::Int(100), Value::Int(0)]);
        let got = merge_rows(&base, &p);
        assert_eq!(got.len(), 5);
        assert_eq!(got[4][0], Value::Int(100));
    }
}
