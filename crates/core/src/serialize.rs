//! Serialize (Algorithm 8): make two *aligned* PDTs *consecutive*, or
//! report that the transactions conflict.
//!
//! `serialize(tx, ty)` takes the Trans-PDT `tx` of a committing transaction
//! and the (already committed) `ty`, both based on the same snapshot
//! (aligned — Definition 1). It produces `T'x`, whose SIDs live in `ty`'s
//! output (RID) domain, so that `T'x` is consecutive to `ty` (Definition 2)
//! and can be Propagate-d into the master Write-PDT. Along the way it
//! performs the paper's tuple-level write-write conflict check:
//!
//! * two inserts of the same sort key at the same position → **key
//!   conflict**,
//! * `ty` deleted a stable tuple that `tx` modifies or deletes → conflict,
//! * `ty` modified a tuple that `tx` deletes → conflict,
//! * `ty` and `tx` modified the **same column** of the same tuple →
//!   conflict (`CheckModConflict`); different columns of the same tuple are
//!   reconciled, as the paper highlights.
//!
//! Instead of transposing SIDs in place we re-emit `tx`'s entries (their
//! value space is reused untouched) through the bulk
//! [`builder`](crate::builder) — equivalent, and it keeps every inner-node
//! separator/∆ exact by construction.

use crate::builder::PdtBuilder;
use crate::tree::Pdt;
use crate::upd::{EntryView, Upd};
use std::fmt;

/// A write-write conflict detected during serialization; the committing
/// transaction must abort (optimistic concurrency control).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// Both transactions inserted a tuple with the same sort key at the
    /// same position.
    KeyConflict {
        /// SID both inserts landed at.
        sid: u64,
    },
    /// The earlier transaction deleted a stable tuple the later one
    /// modifies or deletes.
    DeletedByOther {
        /// SID of the deleted stable tuple.
        sid: u64,
    },
    /// The later transaction deletes a tuple the earlier one modified.
    DeleteOfModified {
        /// SID of the modified tuple.
        sid: u64,
    },
    /// Both transactions modified the same column of the same tuple.
    ModModConflict {
        /// SID of the tuple.
        sid: u64,
        /// The column both modified.
        col: u16,
    },
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::KeyConflict { sid } => {
                write!(f, "duplicate sort-key insert at SID {sid}")
            }
            SerializeError::DeletedByOther { sid } => {
                write!(f, "tuple at SID {sid} was deleted by a concurrent commit")
            }
            SerializeError::DeleteOfModified { sid } => {
                write!(f, "tuple at SID {sid} was modified by a concurrent commit")
            }
            SerializeError::ModModConflict { sid, col } => {
                write!(
                    f,
                    "column {col} of tuple at SID {sid} modified by both transactions"
                )
            }
        }
    }
}

impl std::error::Error for SerializeError {}

/// Split one SID-group of entries into its insert prefix and its
/// stable-tuple tail (Corollary 3: inserts first, then MODs or one DEL).
fn split_group(entries: &[EntryView]) -> (&[EntryView], &[EntryView]) {
    let k = entries.iter().take_while(|e| e.upd.is_ins()).count();
    entries.split_at(k)
}

/// Serialize `tx` against `ty` (see module docs). On success the returned
/// PDT holds `tx`'s updates with SIDs transposed into `ty`'s RID domain; on
/// conflict, `tx` is consumed and the transaction should abort.
pub fn serialize(tx: Pdt, ty: &Pdt) -> Result<Pdt, SerializeError> {
    let tx_entries: Vec<EntryView> = tx.iter().collect();
    let ty_entries: Vec<EntryView> = ty.iter().collect();
    let fanout = tx.fanout();
    let tx_sk = |off: u64| tx.vals().get_insert_sk(off);
    let ty_sk = |off: u64| ty.vals().get_insert_sk(off);

    // Pass 1: compute transposed SIDs (and detect conflicts) without
    // touching the trees.
    let mut out: Vec<(u64, Upd)> = Vec::with_capacity(tx_entries.len());
    let mut j = 0usize;
    let mut delta = 0i64;
    let mut i = 0usize;
    while i < tx_entries.len() {
        let s = tx_entries[i].sid;
        // consume ty groups strictly before s
        while j < ty_entries.len() && ty_entries[j].sid < s {
            delta += ty_entries[j].upd.delta_contrib();
            j += 1;
        }
        // gather the tx group and the ty group at SID s
        let i2 = i + tx_entries[i..].iter().take_while(|e| e.sid == s).count();
        let j2 = j + ty_entries[j..].iter().take_while(|e| e.sid == s).count();
        let (tx_ins, tx_tail) = split_group(&tx_entries[i..i2]);
        let (ty_ins, ty_tail) = split_group(&ty_entries[j..j2]);

        // 1. interleave inserts by sort key (both runs are SK-ascending,
        //    because visible order in an ordered table is SK order)
        let mut a = 0usize;
        for e in tx_ins {
            let key = tx_sk(e.upd.val);
            while a < ty_ins.len() {
                let other = ty_sk(ty_ins[a].upd.val);
                match other.cmp(&key) {
                    std::cmp::Ordering::Less => {
                        delta += 1;
                        a += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        return Err(SerializeError::KeyConflict { sid: s })
                    }
                    std::cmp::Ordering::Greater => break,
                }
            }
            out.push(((s as i64 + delta) as u64, e.upd));
        }
        // remaining ty inserts at this SID precede the stable tuple
        delta += (ty_ins.len() - a) as i64;

        // 2. stable-tuple operations with conflict checks
        if !tx_tail.is_empty() {
            let ty_del = ty_tail.iter().any(|e| e.upd.is_del());
            if ty_del {
                return Err(SerializeError::DeletedByOther { sid: s });
            }
            let tx_del = tx_tail.iter().any(|e| e.upd.is_del());
            if tx_del && !ty_tail.is_empty() {
                return Err(SerializeError::DeleteOfModified { sid: s });
            }
            // CheckModConflict: same column touched by both
            for e in tx_tail.iter().filter(|e| e.upd.is_mod()) {
                if let Some(clash) = ty_tail
                    .iter()
                    .find(|o| o.upd.is_mod() && o.upd.col_no() == e.upd.col_no())
                {
                    return Err(SerializeError::ModModConflict {
                        sid: s,
                        col: clash.upd.col_no(),
                    });
                }
            }
            for e in tx_tail {
                out.push(((s as i64 + delta) as u64, e.upd));
            }
        }
        // 3. ty's stable-tuple tail affects positions after SID s
        delta += ty_tail.iter().map(|e| e.upd.delta_contrib()).sum::<i64>();

        i = i2;
        j = j2;
    }

    // Pass 2: rebuild around tx's value space.
    let vals = tx.into_value_space();
    let mut b = PdtBuilder::new(vals, fanout);
    for (sid, upd) in out {
        b.push(sid, upd);
    }
    Ok(b.build())
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

    fn fresh() -> Pdt {
        Pdt::new(schema(), vec![0])
    }

    /// After serialize, merging ty then T'x must equal applying ty's and
    /// tx's updates to independent copies of the snapshot and composing.
    fn assert_composes(rows: &[Tuple], tx: Pdt, ty: &Pdt, want: &[Tuple]) {
        let txp = serialize(tx, ty).expect("no conflict expected");
        txp.check_invariants();
        let mid = merge_rows(rows, ty);
        let got = merge_rows(&mid, &txp);
        assert_eq!(got, want);
    }

    #[test]
    fn disjoint_updates_compose() {
        let rows = base(10);
        // ty: delete stable 2, insert before stable 7
        let mut ty = fresh();
        ty.add_delete(2, &[Value::Int(20)]);
        ty.add_insert(7, 6, &[Value::Int(65), Value::Int(-1)]);
        // tx (same snapshot): modify stable 5, insert before stable 0
        let mut tx = fresh();
        tx.add_modify(5, 1, &Value::Int(555));
        tx.add_insert(0, 0, &[Value::Int(-5), Value::Int(-2)]);

        // expected: apply ty to base, then tx's updates located by key
        let mut model = NaiveImage::new(&rows, vec![0]);
        model.delete(2);
        model.insert(6, vec![Value::Int(65), Value::Int(-1)]);
        // tx's modify of stable 5 (key 50): now at index 5; insert at 0
        let pos50 = model
            .rows()
            .iter()
            .position(|r| r[0] == Value::Int(50))
            .unwrap();
        model.modify(pos50, 1, Value::Int(555));
        model.insert(0, vec![Value::Int(-5), Value::Int(-2)]);

        assert_composes(&rows, tx, &ty, model.rows());
    }

    #[test]
    fn inserts_at_same_gap_interleave_by_key() {
        let rows = base(4); // 0,10,20,30
        let mut ty = fresh();
        ty.add_insert(2, 2, &[Value::Int(14), Value::Int(0)]);
        ty.add_insert(2, 3, &[Value::Int(17), Value::Int(0)]);
        let mut tx = fresh();
        tx.add_insert(2, 2, &[Value::Int(12), Value::Int(0)]);
        tx.add_insert(2, 3, &[Value::Int(16), Value::Int(0)]);
        tx.add_insert(2, 4, &[Value::Int(19), Value::Int(0)]);

        let txp = serialize(tx, &ty).unwrap();
        let got = merge_rows(&merge_rows(&rows, &ty), &txp);
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(keys, vec![0, 10, 12, 14, 16, 17, 19, 20, 30]);
    }

    #[test]
    fn duplicate_key_insert_conflicts() {
        let mut ty = fresh();
        ty.add_insert(1, 1, &[Value::Int(15), Value::Int(0)]);
        let mut tx = fresh();
        tx.add_insert(1, 1, &[Value::Int(15), Value::Int(9)]);
        assert_eq!(
            serialize(tx, &ty).unwrap_err(),
            SerializeError::KeyConflict { sid: 1 }
        );
    }

    #[test]
    fn delete_delete_conflicts() {
        let mut ty = fresh();
        ty.add_delete(3, &[Value::Int(30)]);
        let mut tx = fresh();
        tx.add_delete(3, &[Value::Int(30)]);
        assert_eq!(
            serialize(tx, &ty).unwrap_err(),
            SerializeError::DeletedByOther { sid: 3 }
        );
    }

    #[test]
    fn modify_of_deleted_conflicts() {
        let mut ty = fresh();
        ty.add_delete(3, &[Value::Int(30)]);
        let mut tx = fresh();
        tx.add_modify(3, 1, &Value::Int(7));
        assert_eq!(
            serialize(tx, &ty).unwrap_err(),
            SerializeError::DeletedByOther { sid: 3 }
        );
    }

    #[test]
    fn delete_of_modified_conflicts() {
        let mut ty = fresh();
        ty.add_modify(3, 1, &Value::Int(7));
        let mut tx = fresh();
        tx.add_delete(3, &[Value::Int(30)]);
        assert_eq!(
            serialize(tx, &ty).unwrap_err(),
            SerializeError::DeleteOfModified { sid: 3 }
        );
    }

    #[test]
    fn same_column_mod_mod_conflicts() {
        let mut ty = fresh();
        ty.add_modify(3, 1, &Value::Int(7));
        let mut tx = fresh();
        tx.add_modify(3, 1, &Value::Int(8));
        assert_eq!(
            serialize(tx, &ty).unwrap_err(),
            SerializeError::ModModConflict { sid: 3, col: 1 }
        );
    }

    #[test]
    fn different_column_mods_reconcile() {
        // the paper's CheckModConflict "even allows to reconcile
        // modifications of different attributes of the same tuple"
        let rows = base(5);
        let mut ty = fresh();
        ty.add_modify(3, 1, &Value::Int(111));
        let mut tx = fresh();
        tx.add_modify(3, 0, &Value::Int(35));

        let txp = serialize(tx, &ty).unwrap();
        let got = merge_rows(&merge_rows(&rows, &ty), &txp);
        assert_eq!(got[3], vec![Value::Int(35), Value::Int(111)]);
    }

    #[test]
    fn insert_never_conflicts_with_delete_at_same_sid() {
        // paper Algorithm 8 lines 22-24: an insert at a position ty deleted
        // is fine — the insert lands where the ghost was.
        let rows = base(5);
        let mut ty = fresh();
        ty.add_delete(2, &[Value::Int(20)]);
        let mut tx = fresh();
        tx.add_insert(2, 2, &[Value::Int(15), Value::Int(0)]);

        let txp = serialize(tx, &ty).unwrap();
        let got = merge_rows(&merge_rows(&rows, &ty), &txp);
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(keys, vec![0, 10, 15, 30, 40]);
    }

    #[test]
    fn positions_shift_by_earlier_ty_updates() {
        let rows = base(8);
        let mut ty = fresh();
        // two deletes early, one insert later
        ty.add_delete(1, &[Value::Int(10)]);
        ty.add_delete(1, &[Value::Int(20)]); // stable 2, same rid after first del
        ty.add_insert(6, 4, &[Value::Int(55), Value::Int(0)]);
        let mut tx = fresh();
        tx.add_modify(7, 1, &Value::Int(-7)); // stable 7 (key 70)

        let txp = serialize(tx, &ty).unwrap();
        let got = merge_rows(&merge_rows(&rows, &ty), &txp);
        let m = got.iter().find(|r| r[0] == Value::Int(70)).unwrap();
        assert_eq!(m[1], Value::Int(-7));
    }

    #[test]
    fn serialize_against_empty_is_identity_shape() {
        let rows = base(6);
        let mut tx = fresh();
        tx.add_delete(4, &[Value::Int(40)]);
        tx.add_insert(1, 1, &[Value::Int(5), Value::Int(0)]);
        let want = merge_rows(&rows, &tx);
        let ty = fresh();
        let txp = serialize(tx, &ty).unwrap();
        assert_eq!(merge_rows(&rows, &txp), want);
    }
}
