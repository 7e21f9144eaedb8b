//! # Block-oriented query executor
//!
//! A small vectorized (block-at-a-time, in the MonetDB/X100 tradition the
//! paper's system descends from) query executor over the columnar read
//! store, with differential updates merged in during scans:
//!
//! * [`batch::Batch`] — a block of rows in columnar layout with a starting
//!   RID (output rows of a merge scan are consecutively numbered),
//! * [`expr::Expr`] — a vectorized expression interpreter (arithmetic,
//!   comparisons, boolean logic, `LIKE`, `CASE`, `IN`, date extraction)
//!   that borrows the batch's columns and runs typed column-against-
//!   column and column-against-scalar kernels,
//! * [`ops`] — pull-based operators: table scans (clean / PDT-merging /
//!   VDT-merging, a union of one merge scan per partition), filter,
//!   project, hash aggregation, hash joins (inner/left-outer/semi/anti),
//!   sort and top-n. The hash operators key on hashed native columns
//!   and address groups and build rows by index. Every scan counts what
//!   it read and emitted in its own [`ScanCounts`] — the per-query I/O
//!   volume and scan time of the paper's Figure 19,
//! * [`stats`] — the same quantities database-wide: scan time vs
//!   processing time and I/O volume over a whole plan ([`measure`]).
//!
//! Dictionary-coded string columns ([`columnar::ColumnVec::Coded`]) flow
//! from the scan through every operator undecoded: an operator reads a
//! string with [`columnar::ColumnVec::str_at`], and a string is built only
//! where a caller asks for a `Value` ([`Batch::row`], [`run_to_rows`]) or
//! an expression makes a new one (`SUBSTRING`).
//!
//! Plans are built by hand (no SQL frontend): the TPC-H queries in the
//! `tpch` crate compose these operators directly.

#![warn(missing_docs)]

pub mod batch;
pub mod expr;
pub mod ops;
pub mod stats;

pub use batch::Batch;
pub use expr::{CmpOp, Expr};
pub use ops::aggregate::{AggFunc, AggSpec, HashAggregate};
pub use ops::filter::Filter;
pub use ops::gather::{gather_rows, Gathered};
pub use ops::join::{HashJoin, JoinKind};
pub use ops::project::Project;
pub use ops::rank::{rank_keys, KeyRanks};
pub use ops::scan::{fold_blocks, DeltaLayers, ScanBounds, ScanCounts, ScanSegment, TableScan};
pub use ops::sort::{Sort, SortKey, TopN};
pub use ops::{run_to_rows, BoxOp, Operator};
pub use stats::{measure, QueryStats, ScanClock};

#[cfg(test)]
mod checkpoint;

/// The paper's running example checkpointed: the `inventory` table with
/// sort key (store, prod) taken through BATCH1–3 (Figures 2, 6, 10) and
/// folded into a new image, which must be Figure 13's table.
#[cfg(test)]
mod paper_example {
    use crate::ops::scan::{fold_blocks, DeltaLayers};
    use columnar::{IoTracker, Schema, StableTable, TableMeta, Tuple, Value, ValueType};
    use pdt::checkpoint::merge_rows;
    use pdt::Pdt;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("store", ValueType::Str),
            ("prod", ValueType::Str),
            ("new", ValueType::Bool),
            ("qty", ValueType::Int),
        ])
    }

    fn row(store: &str, prod: &str, new: &str, qty: i64) -> Tuple {
        vec![
            store.into(),
            prod.into(),
            Value::Bool(new == "Y"),
            qty.into(),
        ]
    }

    /// Figure 1: TABLE0.
    fn table0() -> Vec<Tuple> {
        vec![
            row("London", "chair", "N", 30),
            row("London", "stool", "N", 10),
            row("London", "table", "N", 20),
            row("Paris", "rug", "N", 1),
            row("Paris", "stool", "N", 5),
        ]
    }

    /// One SQL-level statement of a batch, its row addressed by key.
    enum Stmt {
        Insert(Tuple),
        SetQty(&'static str, &'static str, i64),
        Delete(&'static str, &'static str),
    }

    /// Apply `stmts` the way the engine does: locate the RID by key in the
    /// visible image, resolve an insert's SID relative to ghosts.
    fn apply(pdt: &mut Pdt, stmts: Vec<Stmt>) {
        for s in stmts {
            let visible = merge_rows(&table0(), pdt);
            let key = |t: &Tuple| [t[0].clone(), t[1].clone()];
            let rid_of = |store: &str, prod: &str| {
                let at = visible
                    .iter()
                    .position(|t| key(t) == [store.into(), prod.into()]);
                at.unwrap_or_else(|| panic!("({store},{prod}) not visible")) as u64
            };
            match s {
                Stmt::Insert(t) => {
                    let rid = visible.partition_point(|v| key(v) < key(&t)) as u64;
                    let sid = pdt.sk_rid_to_sid(&key(&t), rid);
                    pdt.add_insert(sid, rid, &t);
                }
                Stmt::SetQty(store, prod, q) => pdt.add_modify(rid_of(store, prod), 3, &q.into()),
                Stmt::Delete(store, prod) => {
                    pdt.add_delete(rid_of(store, prod), &[store.into(), prod.into()]);
                }
            }
        }
    }

    #[test]
    fn checkpoint_after_batches_matches_figure13() {
        let mut pdt = Pdt::with_fanout(schema(), vec![0, 1], 4);
        // Figure 2
        apply(
            &mut pdt,
            vec![
                Stmt::Insert(row("Berlin", "table", "Y", 10)),
                Stmt::Insert(row("Berlin", "cloth", "Y", 5)),
                Stmt::Insert(row("Berlin", "chair", "Y", 20)),
            ],
        );
        // Figure 6
        apply(
            &mut pdt,
            vec![
                Stmt::SetQty("Berlin", "cloth", 1),
                Stmt::SetQty("London", "stool", 9),
                Stmt::Delete("Berlin", "table"),
                Stmt::Delete("Paris", "rug"),
            ],
        );
        // Figure 10
        apply(
            &mut pdt,
            vec![
                Stmt::Insert(row("Paris", "rack", "Y", 4)),
                Stmt::Insert(row("London", "rack", "Y", 4)),
                Stmt::Insert(row("Berlin", "rack", "Y", 4)),
            ],
        );

        // Figure 13
        let figure13 = vec![
            row("Berlin", "chair", "Y", 20),
            row("Berlin", "cloth", "Y", 1),
            row("Berlin", "rack", "Y", 4),
            row("London", "chair", "N", 30),
            row("London", "rack", "Y", 4),
            row("London", "stool", "N", 9),
            row("London", "table", "N", 20),
            row("Paris", "rack", "Y", 4),
            row("Paris", "stool", "N", 5),
        ];
        assert_eq!(merge_rows(&table0(), &pdt), figure13);
        // one block, and blocks of two rows: inserts at block 0's head and
        // inside blocks, (Paris,rack) before the (Paris,rug) ghost
        for block_rows in [4096, 2] {
            let meta = TableMeta::new("inventory", schema(), vec![0, 1]);
            let t0 = StableTable::load(meta, block_rows, table0()).unwrap();
            let io = IoTracker::new();
            let layers = DeltaLayers::Pdt(vec![&pdt]);
            let t3 = fold_blocks(&t0, layers, 0, t0.num_blocks(), &io).unwrap();
            assert_eq!(t3.row_count(), 9);
            assert_eq!(t3.scan_all(&io).unwrap(), figure13);
        }
    }
}
