//! Propagate (Algorithm 7): fold a consecutive PDT into the PDT below it.
//!
//! `lower.propagate(upper)` requires `upper` to be *consecutive* to `lower`
//! (Definition 2): the table state `upper` is based on is the state `lower`
//! produces. In the paper's architecture this migrates the contents of the
//! (CPU-cache-resident) Write-PDT into the (RAM-resident) Read-PDT when the
//! former outgrows its budget, and likewise commits a serialized Trans-PDT
//! into the master Write-PDT.
//!
//! The key observation (paper §3.3): processing `upper`'s updates in leaf
//! order means that, at the moment an update at output position `rid` is
//! applied, `lower` already reflects every earlier update — so `lower`'s
//! own ∆ bookkeeping maps that `rid` straight to the right stable position,
//! and inserts are positioned relative to ghost tuples via `SkRidToSid`
//! (Algorithm 6).
//!
//! Values move by offset, not by `Value`: `upper`'s live inserts are
//! appended to `lower`'s insert table with one typed gather per column
//! before the walk, so each INS becomes one tree insertion at a known
//! offset ([`Pdt::add_insert_off`]: one descent, its ghost ordering
//! compared cell by cell in `lower`'s value space); a DEL copies its
//! ghost key's cells only when it records a ghost.

use crate::tree::Pdt;

/// Apply all updates of `upper` (consecutive to `lower`) onto `lower`.
///
/// After the call, `lower` alone represents the combined difference:
/// `TABLE.Merge(lower')` ≡ `TABLE.Merge(lower).Merge(upper)`. `lower`'s
/// value space grows by exactly what `upper`'s entries reference.
pub fn propagate(lower: &mut Pdt, upper: &Pdt) {
    debug_assert_eq!(
        lower.schema(),
        upper.schema(),
        "propagate requires identical schemas"
    );
    let live: Vec<usize> = upper
        .iter()
        .filter(|e| e.upd.is_ins())
        .map(|e| e.upd.val as usize)
        .collect();
    let mut off = lower.vals_mut().append_inserts_from(upper.vals(), &live);
    let mut cur = upper.begin();
    while let Some(e) = upper.entry(&cur) {
        let rid = e.rid;
        if e.upd.is_ins() {
            lower.add_insert_off(rid, off);
            off += 1;
        } else if e.upd.is_del() {
            lower.delete_with(rid, |vals| vals.copy_delete_from(upper.vals(), e.upd.val));
        } else {
            let col = e.upd.col_no() as usize;
            let v = upper.vals().get_modify(col, e.upd.val);
            lower.add_modify(rid, col, &v);
        }
        upper.advance(&mut cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::merge_rows;
    use crate::naive::NaiveImage;
    use columnar::{Schema, Tuple, Value, ValueType};

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)])
    }

    fn base(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
            .collect()
    }

    #[test]
    fn propagate_equals_sequential_merge() {
        let rows = base(20);
        let mut lower = Pdt::new(schema(), vec![0]);
        // lower: delete stable 5, insert before stable 10, modify stable 2
        lower.add_delete(5, &[Value::Int(50)]);
        lower.add_insert(10, 9, &[Value::Int(95), Value::Int(-1)]);
        lower.add_modify(2, 1, &Value::Int(222));

        // upper operates on lower's output image
        let mid = merge_rows(&rows, &lower);
        let mut model = NaiveImage::new(&mid, vec![0]);
        let mut upper = Pdt::new(schema(), vec![0]);

        // upper: insert at rid 0, delete rid 12, modify rid 3
        let t: Tuple = vec![Value::Int(-5), Value::Int(99)];
        let sid_u = model.insert(0, t.clone());
        upper.add_insert(sid_u, 0, &t);
        let sk = model.delete(12);
        upper.add_delete(12, &sk);
        model.modify(3, 1, Value::Int(333));
        upper.add_modify(3, 1, &Value::Int(333));

        let want = merge_rows(&mid, &upper);
        assert_eq!(want.as_slice(), model.rows());

        propagate(&mut lower, &upper);
        lower.check_invariants();
        assert_eq!(merge_rows(&rows, &lower), want);
    }

    #[test]
    fn propagate_respects_ghosts() {
        // lower deletes stable 3; upper inserts a key that sorts before the
        // ghost — the insert must receive the ghost's SID in `lower`.
        let rows = base(6); // keys 0,10,20,30,40,50
        let mut lower = Pdt::new(schema(), vec![0]);
        lower.add_delete(3, &[Value::Int(30)]);

        let _mid = merge_rows(&rows, &lower); // 0,10,20,40,50
        let mut upper = Pdt::new(schema(), vec![0]);
        // key 25 at rid 3 of mid-image (before 40)
        upper.add_insert(3, 3, &[Value::Int(25), Value::Int(0)]);

        propagate(&mut lower, &upper);
        lower.check_invariants();
        let got = merge_rows(&rows, &lower);
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(keys, vec![0, 10, 20, 25, 40, 50]);
        // the insert's SID must be 3 (the ghost's), keeping sparse indexes valid
        let e = lower.iter().find(|e| e.upd.is_ins()).unwrap();
        assert_eq!(e.sid, 3);
    }

    #[test]
    fn propagate_folds_update_of_update() {
        // upper modifies a tuple that lower inserted: folds in place.
        let rows = base(4);
        let mut lower = Pdt::new(schema(), vec![0]);
        lower.add_insert(2, 2, &[Value::Int(15), Value::Int(7)]);
        let mut upper = Pdt::new(schema(), vec![0]);
        upper.add_modify(2, 1, &Value::Int(77)); // rid 2 = the insert
        propagate(&mut lower, &upper);
        assert_eq!(lower.len(), 1, "modify folded into the insert");
        let got = merge_rows(&rows, &lower);
        assert_eq!(got[2], vec![Value::Int(15), Value::Int(77)]);

        // upper deletes the same tuple: the insert disappears entirely
        let mut upper2 = Pdt::new(schema(), vec![0]);
        upper2.add_delete(2, &[Value::Int(15)]);
        propagate(&mut lower, &upper2);
        assert!(lower.is_empty());
    }

    #[test]
    fn propagate_empty_upper_is_noop() {
        let mut lower = Pdt::new(schema(), vec![0]);
        lower.add_delete(1, &[Value::Int(10)]);
        let upper = Pdt::new(schema(), vec![0]);
        let before: Vec<_> = lower.iter().collect();
        propagate(&mut lower, &upper);
        assert_eq!(lower.iter().collect::<Vec<_>>(), before);
    }
}
