//! Re-applying a transaction's staged ops onto a VDT, with conflict
//! detection.
//!
//! The PDT transaction layer keeps a private Trans-PDT per transaction; the
//! value-based analogue is a log of [`KeyOp`]s (the op type the VDT shares
//! with the row buffer — the engine's `KeyStore` stages, flattens to
//! key-addressed WAL entries and publishes it the same way for both). What
//! is the VDT's own is how a log is **replayed**: when another transaction
//! committed (or a checkpoint ran) between this transaction's begin and
//! commit, its staged ops are re-applied onto the *current* committed VDT
//! with value-wise write-write conflict detection mirroring the PDT's
//! Serialize rules — [`Vdt::replay`].

use crate::Vdt;
use columnar::{KeyOp, Value};

impl Vdt {
    /// Re-apply `op` onto this tree, detecting write-write conflicts against
    /// updates committed after this transaction began. The rules mirror the
    /// PDT's Serialize (Algorithm 8):
    ///
    /// * insert vs concurrent insert of the same key → conflict,
    /// * delete vs concurrent delete or modify of the same tuple → conflict,
    /// * modify vs concurrent delete, or concurrent modify of the *same
    ///   column* → conflict; disjoint-column modifies reconcile (the
    ///   paper's `CheckModConflict`).
    ///
    /// Concurrency is recognised value-wise: a pending insert that differs
    /// from this op's pre-image at some column must have been produced by a
    /// transaction that committed after ours began. The pre-images in an
    /// ops log *chain*: DML stages each statement against the transaction's
    /// own working view, so a later op's pre-image already folds in this
    /// transaction's earlier ops. That makes the value comparisons
    /// self-consistent — an earlier own op never looks like a concurrent
    /// write, while a genuinely concurrent write to the same tuple still
    /// differs from the chained pre-image and is caught on *every* op, not
    /// just the first one per key.
    pub fn replay(&mut self, op: &KeyOp) -> Result<(), String> {
        match op {
            KeyOp::Insert(t) => self.replay_insert(t),
            KeyOp::InsertBatch(ts) => {
                // the batch footprint validates item-wise: any clashing key
                // aborts the whole transaction, exactly as a row loop would
                for t in ts {
                    self.replay_insert(t)?;
                }
                Ok(())
            }
            KeyOp::Delete { pre } => self.replay_delete(pre),
            KeyOp::DeleteBatch { pres } => {
                for pre in pres {
                    self.replay_delete(pre)?;
                }
                Ok(())
            }
            KeyOp::Modify { pre, col, value } => {
                let sk = self.sk_of(pre);
                match self.pending_insert(&sk) {
                    // same column changed by a concurrent commit
                    Some(p) if p[*col] != pre[*col] => {
                        return Err(format!(
                            "column {col} of sort key {sk:?} modified by both \
                             transactions"
                        ));
                    }
                    // disjoint columns reconcile: Vdt::modify folds our
                    // column into the pending tuple, keeping theirs
                    Some(_) => {}
                    None if self.pending_delete(&sk) => {
                        return Err(format!(
                            "modify of sort key {sk:?} concurrently deleted by \
                             another transaction"
                        ));
                    }
                    None => {}
                }
                self.modify(pre, *col, value.clone());
                Ok(())
            }
        }
    }

    fn replay_insert(&mut self, t: &[Value]) -> Result<(), String> {
        let sk = self.sk_of(t);
        if self.pending_insert(&sk).is_some() {
            return Err(format!("concurrent insert of sort key {sk:?}"));
        }
        self.insert(t.to_vec());
        Ok(())
    }

    fn replay_delete(&mut self, pre: &[Value]) -> Result<(), String> {
        let sk = self.sk_of(pre);
        match self.pending_insert(&sk) {
            // a pending tuple differing from our (chained) pre-image
            // was committed after we began: delete-vs-modify
            Some(p) if p.as_slice() != pre => {
                return Err(format!(
                    "delete of sort key {sk:?} concurrently modified by \
                     another transaction"
                ));
            }
            Some(_) => {}
            // no pending tuple but a delete marker: the tuple we
            // saw was concurrently deleted (delete-vs-delete)
            None if self.pending_delete(&sk) => {
                return Err(format!("sort key {sk:?} deleted by both transactions"));
            }
            None => {}
        }
        self.delete(&sk);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::{Schema, Tuple, ValueType};

    fn vdt() -> Vdt {
        Vdt::new(
            Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]),
            vec![0],
        )
    }

    fn replay_all(ops: &[KeyOp], vdt: &mut Vdt) -> Result<(), String> {
        ops.iter().try_for_each(|op| vdt.replay(op))
    }

    #[test]
    fn replay_matches_direct_application() {
        let mut direct = vdt();
        direct.insert(vec![Value::Int(5), Value::Int(50)]);
        direct.delete(&[Value::Int(10)]);
        direct.modify(&[Value::Int(20), Value::Int(2)], 1, Value::Int(99));

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
        let mut replayed = vdt();
        replay_all(&ops, &mut replayed).unwrap();
        let rows: Vec<Tuple> = (0..3)
            .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
            .collect();
        assert_eq!(replayed.merge_rows(&rows), direct.merge_rows(&rows));
    }

    #[test]
    fn insert_conflicts_with_pending_insert() {
        let mut v = vdt();
        v.insert(vec![Value::Int(5), Value::Int(1)]);
        let op = KeyOp::Insert(vec![Value::Int(5), Value::Int(2)]);
        assert!(replay_all(&[op], &mut v).is_err());
    }

    #[test]
    fn same_column_modify_conflicts_disjoint_reconciles() {
        let base = vec![Value::Int(10), Value::Int(1)];
        // "they" committed a modify of column 1 after we began
        let mut v = vdt();
        v.modify(&base, 1, Value::Int(50));
        let ours = KeyOp::Modify {
            pre: base.clone(),
            col: 1,
            value: Value::Int(60),
        };
        assert!(replay_all(&[ours], &mut v.clone()).is_err(), "same column");

        // a 3-column table: they changed col 2, we change col 1 → both land
        let schema = Schema::from_pairs(&[
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Int),
        ]);
        let mut v = Vdt::new(schema, vec![0]);
        let base = vec![Value::Int(10), Value::Int(1), Value::Int(2)];
        v.modify(&base, 2, Value::Int(22));
        let ours = KeyOp::Modify {
            pre: base,
            col: 1,
            value: Value::Int(11),
        };
        replay_all(&[ours], &mut v).unwrap();
        let merged = v.merge_rows(&[vec![Value::Int(10), Value::Int(1), Value::Int(2)]]);
        assert_eq!(
            merged[0],
            vec![Value::Int(10), Value::Int(11), Value::Int(22)]
        );
    }

    #[test]
    fn delete_conflicts_with_concurrent_modify_and_delete() {
        let base = vec![Value::Int(10), Value::Int(1)];
        // concurrent modify → delete conflicts
        let mut v = vdt();
        v.modify(&base, 1, Value::Int(50));
        let del = KeyOp::Delete { pre: base.clone() };
        assert!(replay_all(std::slice::from_ref(&del), &mut v).is_err());
        // concurrent delete → delete conflicts
        let mut v = vdt();
        v.delete(&[Value::Int(10)]);
        assert!(replay_all(&[del], &mut v).is_err());
    }

    #[test]
    fn own_ops_do_not_self_conflict() {
        // modify then delete the same tuple within one transaction: the
        // chained pre-image of the delete matches the replayed pending
        // tuple, so no conflict fires
        let base = vec![Value::Int(10), Value::Int(1)];
        let mut modified = base.clone();
        modified[1] = Value::Int(7);
        let ops = [
            KeyOp::Modify {
                pre: base,
                col: 1,
                value: Value::Int(7),
            },
            KeyOp::Delete { pre: modified },
        ];
        let mut v = vdt();
        replay_all(&ops, &mut v).unwrap();
        let rows = vec![vec![Value::Int(10), Value::Int(1)]];
        assert!(v.merge_rows(&rows).is_empty());
    }

    #[test]
    fn later_own_op_still_sees_concurrent_same_column_write() {
        // regression: a transaction's *second* op on a key must still be
        // validated against concurrent commits — "they" changed column 1
        // after we began; our ops are modify(col 2) then modify(col 1).
        // The first reconciles (disjoint), the second is a lost update and
        // must conflict, exactly as the PDT and row-store backends decide.
        let schema = Schema::from_pairs(&[
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Int),
        ]);
        let mut v = Vdt::new(schema, vec![0]);
        let base = vec![Value::Int(10), Value::Int(1), Value::Int(2)];
        v.modify(&base, 1, Value::Int(50)); // their commit
        let mut chained = base.clone();
        chained[2] = Value::Int(22);
        let ops = [
            KeyOp::Modify {
                pre: base,
                col: 2,
                value: Value::Int(22),
            },
            KeyOp::Modify {
                pre: chained.clone(),
                col: 1,
                value: Value::Int(60),
            },
        ];
        assert!(replay_all(&ops, &mut v).is_err(), "lost update must abort");

        // and modify-then-delete of a concurrently modified tuple conflicts
        // on the delete (its chained pre-image differs from the pending row)
        let schema = Schema::from_pairs(&[
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Int),
        ]);
        let mut v = Vdt::new(schema, vec![0]);
        let base = vec![Value::Int(10), Value::Int(1), Value::Int(2)];
        v.modify(&base, 1, Value::Int(50)); // their commit
        let ops = [
            KeyOp::Modify {
                pre: base,
                col: 2,
                value: Value::Int(22),
            },
            KeyOp::Delete { pre: chained },
        ];
        assert!(replay_all(&ops, &mut v).is_err(), "delete-vs-modify");
    }
}
