//! Batched DML payloads — the unit of the engine's batch-first write path.
//!
//! Every write statement ([`crate::DbTxn::append`],
//! [`crate::DbTxn::delete_rids`], [`crate::DbTxn::update_col`], and the
//! predicate forms built on top of them) resolves its victims *once*,
//! packs them into one [`DmlBatch`], and hands it to the table's update
//! structure through [`crate::DeltaTxn::stage_batch`] — one staging call,
//! one op-log entry, one WAL entry per statement, however many rows it
//! touches. The payload reuses the executor's columnar [`Batch`], so rows
//! flow from scan output into the write path without transposition.
//!
//! A `DmlBatch` is *positional*: the engine has already translated
//! predicates and sort keys into visible RIDs, which is exactly the
//! division of labor the paper's PDT design prescribes — position
//! resolution happens once per statement, not once per row inside the
//! structure. What a victim's *pre-image* must hold is the structure's to
//! say, not the engine's: each one declares, per statement kind
//! ([`PreImageOf`], [`crate::DeltaSnapshot::pre_image_cols`]), the columns it
//! stores or consumes — a PDT keeps a deleted tuple's sort key and nothing
//! of an updated one, a value-addressed structure addresses both by whole
//! tuples — and the engine fetches exactly that projection.

use columnar::ColumnVec;
use exec::Batch;

/// The statement kinds whose batch carries pre-images of its victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreImageOf {
    /// [`DmlBatch::Delete`].
    Delete,
    /// [`DmlBatch::UpdateCol`].
    UpdateCol,
}

/// One batched DML statement, ready for [`crate::DeltaTxn::stage_batch`].
///
/// ## Invariants (upheld by the `DbTxn` entry points)
///
/// * `Insert`: `rows` are sort-key-ordered with distinct keys, all of full
///   table width; `rids` pair with the rows **in application order** —
///   inserting row `i` at visible position `rids[i]`, one row after the
///   other in index order, produces the image the batch produces (each
///   rid already accounts for the `i` earlier inserts of the same batch).
/// * `Delete`: `rids` are ascending visible positions of the current
///   transaction view, `pre` holds the victims' pre-images in the same
///   order (ascending rid ⇒ ascending sort key) — the columns the staging
///   structure declared for [`PreImageOf::Delete`], in declaration order.
/// * `UpdateCol`: `rids` ascending and distinct, `values[i]` is the new
///   value of column `col` for the row at `rids[i]`, `pre` the pre-images
///   in the same order, projected to the [`PreImageOf::UpdateCol`]
///   declaration (no column at all for a PDT). `col` is never a sort-key
///   column (the engine rewrites those as delete + insert, per §2.1 of the
///   paper).
#[derive(Debug, Clone)]
pub enum DmlBatch {
    /// Insert `rows` at visible positions `rids`.
    Insert {
        /// Ascending target positions, offset by earlier batch inserts.
        rids: Vec<u64>,
        /// The inserted rows, in position order.
        rows: Batch,
    },
    /// Delete the visible rows at `rids`.
    Delete {
        /// Ascending visible positions of the victims.
        rids: Vec<u64>,
        /// The victims' declared pre-image columns, in `rids` order.
        pre: Batch,
    },
    /// Set column `col` of the visible rows at `rids` to `values`.
    UpdateCol {
        /// Ascending, distinct visible positions.
        rids: Vec<u64>,
        /// The updated column (never a sort-key column).
        col: usize,
        /// New values, `values[i]` for the row at `rids[i]`.
        values: ColumnVec,
        /// The updated rows' declared pre-image columns, in `rids` order.
        pre: Batch,
    },
}

impl DmlBatch {
    /// Number of rows this statement touches.
    pub fn len(&self) -> usize {
        match self {
            DmlBatch::Insert { rids, .. }
            | DmlBatch::Delete { rids, .. }
            | DmlBatch::UpdateCol { rids, .. } => rids.len(),
        }
    }

    /// Whether the statement touches no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::{Value, ValueType};

    #[test]
    fn len_counts_rows() {
        let rows = Batch::from_rows(
            &[ValueType::Int, ValueType::Str],
            &[
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Int(2), Value::Str("b".into())],
            ],
        );
        let b = DmlBatch::Insert {
            rids: vec![0, 1],
            rows,
        };
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }
}
