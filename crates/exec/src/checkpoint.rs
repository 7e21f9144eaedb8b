//! A PDT checkpoint held to the specification merge.
//!
//! A checkpoint of a PDT is [`fold_blocks`] over every block of the image
//! (a compaction step is the same fold over a block range); what it must
//! produce is `pdt::checkpoint::merge_rows` of the whole image, and, for a
//! range, the kept prefix, the merge's rows from the range and the kept
//! suffix.

#[cfg(test)]
mod tests {
    use crate::ops::scan::{fold_blocks, DeltaLayers};
    use columnar::{IoTracker, Schema, StableTable, TableMeta, Tuple, Value, ValueType};
    use pdt::checkpoint::merge_rows;
    use pdt::Pdt;

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)])
    }

    fn load(base: &[Tuple]) -> StableTable {
        let meta = TableMeta::new("t", schema(), vec![0]);
        StableTable::load(meta, 16, base).unwrap()
    }

    /// The PDT folded into blocks `[b0, b1)` of `t`, passed whole (as a
    /// maintenance step passes its pinned Read-PDT).
    fn fold(t: &StableTable, p: &Pdt, b0: usize, b1: usize, io: &IoTracker) -> StableTable {
        fold_blocks(t, DeltaLayers::Pdt(vec![p]), b0, b1, io).unwrap()
    }

    #[test]
    fn checkpoint_resets_positions() {
        let base: Vec<Tuple> = (0..100)
            .map(|i| vec![Value::Int(i), Value::Int(i * 100)])
            .collect();
        let t0 = load(&base);
        let mut p = Pdt::new(schema(), vec![0]);
        p.add_delete(10, &[Value::Int(10)]);
        // append a new largest key at the end (rid 99 after the delete)
        p.add_insert(100, 99, &[Value::Int(495), Value::Int(0)]);
        let io = IoTracker::new();
        let t1 = fold(&t0, &p, 0, t0.num_blocks(), &io);
        assert_eq!(t1.row_count(), 100); // -1 +1
                                         // new image equals the merged rows, re-addressed from SID 0
        let fresh = t1.scan_all(&io).unwrap();
        assert_eq!(fresh, merge_rows(&base, &p));
        for (sid, row) in fresh.iter().enumerate() {
            assert_eq!(t1.get_row(sid as u64, &io).unwrap(), *row);
        }
        // sparse index rebuilt: lookup works against the new image
        let r = t1.sid_range(Some(&[Value::Int(495)]), Some(&[Value::Int(495)]));
        assert!(!r.is_empty());
        assert_eq!(t1.get_row(r.end - 1, &io).unwrap()[0], Value::Int(495));
    }

    #[test]
    fn checkpoint_range_matches_full_merge_on_the_window() {
        let base: Vec<Tuple> = (0..100)
            .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
            .collect();
        let t0 = load(&base);
        let mut p = Pdt::new(schema(), vec![0]);
        // updates inside blocks 2..4 (sids 32..64) and outside them
        p.add_delete(40, &[Value::Int(400)]);
        p.add_insert(50, 49, &[Value::Int(495), Value::Int(1)]);
        p.add_modify(35, 1, &Value::Int(-1));
        p.add_delete(5, &[Value::Int(50)]); // prefix: untouched by the range
        p.add_insert(100, 99, &[Value::Int(9990), Value::Int(0)]); // tail gap
        let io = IoTracker::new();
        let got = fold(&t0, &p, 2, 4, &io);
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
        let got = fold(&t0, &p, nb - 1, nb, &io);
        let last = got.get_row(got.row_count() - 1, &io).unwrap();
        assert_eq!(last[0], Value::Int(9990), "trailing insert folds");
        // the whole-table range is the full checkpoint
        let ranged = fold(&t0, &p, 0, nb, &io);
        assert_eq!(ranged.scan_all(&io).unwrap(), full);
        // an image without blocks folds its append gap through [0, 0)
        let empty = load(&[]);
        let mut tail = Pdt::new(schema(), vec![0]);
        tail.add_insert(0, 0, &[Value::Int(7), Value::Int(70)]);
        let grown = fold(&empty, &tail, 0, 0, &io);
        assert_eq!(grown.scan_all(&io).unwrap(), merge_rows(&[], &tail));
    }
}
