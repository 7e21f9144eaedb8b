//! Sparse min/max index over the sort key.
//!
//! The paper (§2.1, "Respecting Deletes") leans on sparse indexing — Zone
//! Maps, Knowledge Grid, Small Materialized Aggregates — to let scans skip
//! SID ranges. Its ghost-respecting SID semantics exist precisely so that
//! this index may be kept *stale*: an index built on TABLE0 stays valid for
//! all future table versions, because inserts receive SIDs that respect the
//! original key order even around deleted ("ghost") tuples.
//!
//! We implement the classical variant from the paper's example: one entry
//! per block recording the sort key of the block's first tuple; a lookup
//! maps a sort-key range to a conservative SID range.

use crate::value::{SkKey, Value};
use std::cmp::Ordering;

/// Sparse index entries, one per storage block.
#[derive(Debug, Clone, Default)]
pub struct SparseIndex {
    /// `first_key[g]` = sort key of the first tuple of block `g`.
    first_key: Vec<SkKey>,
    /// `start_sid[g]` = SID of the first tuple of block `g`; one extra
    /// trailing entry holds the total row count.
    start_sid: Vec<u64>,
}

impl SparseIndex {
    /// Build from per-block first keys and block starts. `row_count` closes
    /// the last block's range.
    pub fn new(first_key: Vec<SkKey>, start_sid: Vec<u64>, row_count: u64) -> Self {
        assert_eq!(first_key.len(), start_sid.len());
        let mut start_sid = start_sid;
        start_sid.push(row_count);
        SparseIndex {
            first_key,
            start_sid,
        }
    }

    /// Number of indexed blocks.
    pub fn num_blocks(&self) -> usize {
        self.first_key.len()
    }

    /// Per-block first sort keys (the block minima, since tables are
    /// sort-key ordered). Used for image serialization and block skipping.
    pub fn first_keys(&self) -> &[SkKey] {
        &self.first_key
    }

    /// Total rows covered.
    pub fn row_count(&self) -> u64 {
        *self.start_sid.last().unwrap_or(&0)
    }

    /// Compare a stored (full) sort key against a query prefix: only the
    /// prefix columns participate.
    fn cmp_prefix(stored: &SkKey, prefix: &[Value]) -> Ordering {
        for (s, p) in stored.iter().zip(prefix.iter()) {
            match s.cmp(p) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Conservative SID range `[lo_sid, hi_sid)` for tuples whose sort key
    /// prefix lies in `[lo, hi]` (either bound optional, both inclusive).
    ///
    /// Conservative means the range may include non-qualifying tuples (the
    /// scan re-filters) but never excludes qualifying ones — including
    /// qualifying tuples that only exist as PDT inserts positioned relative
    /// to ghost tuples (the paper's `(Paris,rack)` example).
    pub fn sid_range(&self, lo: Option<&[Value]>, hi: Option<&[Value]>) -> (u64, u64) {
        if self.first_key.is_empty() {
            return (0, self.row_count());
        }
        // `first_key` is sorted, so its prefix projection is too: both
        // probes are binary searches, not walks
        let lo_sid = match lo {
            None => 0,
            Some(lo) => {
                // Start one block before the first block whose first key is
                // >= lo: with prefix bounds, the *tail* of the preceding
                // block may still match the prefix (e.g. a (Paris,rug) row
                // in a block whose successor starts at (Paris,stool)).
                let g = self
                    .first_key
                    .partition_point(|k| Self::cmp_prefix(k, lo) == Ordering::Less);
                self.start_sid[g.saturating_sub(1)]
            }
        };
        let hi_sid = match hi {
            None => self.row_count(),
            // the first block whose first key > hi ends the range (the
            // trailing `start_sid` entry is the row count)
            Some(hi) => {
                let g = self
                    .first_key
                    .partition_point(|k| Self::cmp_prefix(k, hi) != Ordering::Greater);
                self.start_sid[g]
            }
        };
        (lo_sid, hi_sid.max(lo_sid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SortKeyDef;
    use crate::value::Tuple;

    /// An index over `rows`, one entry per `block_rows` of them.
    fn from_rows(rows: &[Tuple], sk: &SortKeyDef, block_rows: usize) -> SparseIndex {
        let first_key = (rows.iter().step_by(block_rows))
            .map(|r| crate::value::sk_of(r, sk.cols()))
            .collect();
        let start_sid = (0..rows.len() as u64).step_by(block_rows).collect();
        SparseIndex::new(first_key, start_sid, rows.len() as u64)
    }

    fn index() -> SparseIndex {
        // 9 rows, block of 3, key = col 0 (int)
        let rows: Vec<Tuple> = (0..9).map(|i| vec![Value::Int(i * 10)]).collect();
        let sk = SortKeyDef::new(vec![0]);
        from_rows(&rows, &sk, 3)
    }

    #[test]
    fn full_range_without_bounds() {
        let idx = index();
        assert_eq!(idx.sid_range(None, None), (0, 9));
        assert_eq!(idx.num_blocks(), 3);
    }

    #[test]
    fn lower_bound_snaps_to_block_start() {
        let idx = index();
        // 35 lies in block 1 (keys 30,40,50) which starts at sid 3
        assert_eq!(idx.sid_range(Some(&[Value::Int(35)]), None).0, 3);
        // exactly a block-first key: conservative — starts one block early
        // because with prefix bounds the previous block's tail may qualify
        assert_eq!(idx.sid_range(Some(&[Value::Int(60)]), None).0, 3);
        // smaller than everything
        assert_eq!(idx.sid_range(Some(&[Value::Int(-5)]), None).0, 0);
    }

    #[test]
    fn upper_bound_snaps_to_next_block_start() {
        let idx = index();
        assert_eq!(idx.sid_range(None, Some(&[Value::Int(35)])).1, 6);
        assert_eq!(idx.sid_range(None, Some(&[Value::Int(25)])).1, 3);
        assert_eq!(idx.sid_range(None, Some(&[Value::Int(100)])).1, 9);
    }

    #[test]
    fn empty_range_does_not_invert() {
        let idx = index();
        let (lo, hi) = idx.sid_range(Some(&[Value::Int(80)]), Some(&[Value::Int(-1)]));
        assert!(lo <= hi);
    }

    #[test]
    fn paper_example_sparse_lookup() {
        // The paper's sparse index: (London,stool)->SID<=1, (Paris,rug)->SID<=3.
        // Equivalent first-key form with block size 2 over TABLE0 of Fig. 1.
        let rows: Vec<Tuple> = [
            ("London", "chair"),
            ("London", "stool"),
            ("London", "table"),
            ("Paris", "rug"),
            ("Paris", "stool"),
        ]
        .iter()
        .map(|(s, p)| vec![Value::from(*s), Value::from(*p)])
        .collect();
        let sk = SortKeyDef::new(vec![0, 1]);
        let idx = from_rows(&rows, &sk, 2);
        // Query: store='Paris' AND prod<'rug'  ==> range (Paris,"") ..= (Paris,rug)
        let (lo, hi) = idx.sid_range(
            Some(&[Value::from("Paris")]),
            Some(&[Value::from("Paris"), Value::from("rug")]),
        );
        // must cover SIDs 2..5 conservatively — in particular SID 3 (ghost
        // position where (Paris,rack) inserts land)
        assert!(lo <= 3 && hi >= 4, "got ({lo},{hi})");
    }

    #[test]
    fn prefix_bound_on_compound_key() {
        let rows: Vec<Tuple> = [
            ("a", 1i64),
            ("a", 2),
            ("b", 1),
            ("b", 2),
            ("c", 1),
            ("c", 2),
        ]
        .iter()
        .map(|(s, i)| vec![Value::from(*s), Value::from(*i)])
        .collect();
        let sk = SortKeyDef::new(vec![0, 1]);
        let idx = from_rows(&rows, &sk, 2);
        // prefix bound on first column only
        let (lo, hi) = idx.sid_range(Some(&[Value::from("b")]), Some(&[Value::from("b")]));
        assert!(lo <= 2 && hi >= 4);
        // block-granular: may include neighbours but not the whole table
        assert!(hi - lo <= 4);
    }
}
