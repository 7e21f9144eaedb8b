//! Executable specification of differential-update semantics.
//!
//! [`NaiveImage`] maintains the *visible* table as a plain row vector and
//! applies positional updates directly. It additionally tracks, per visible
//! row, which stable tuple (SID) it originates from, so tests can derive
//! the `(sid, rid)` pairs a PDT needs and cross-check the PDT's RID⇔SID
//! mapping. Every PDT/VDT behaviour in this workspace is validated against
//! this model by unit and property tests.

use columnar::{Tuple, Value};

/// Reference model of a table under positional updates.
#[derive(Debug, Clone)]
pub struct NaiveImage {
    rows: Vec<Tuple>,
    /// `origin[i] = Some(sid)` when visible row `i` is stable tuple `sid`.
    origin: Vec<Option<u64>>,
    stable_count: u64,
    sk_cols: Vec<usize>,
}

impl NaiveImage {
    /// The image of a stable table holding `stable_rows`, in order, sorted
    /// on `sk_cols`.
    pub fn new(stable_rows: &[Tuple], sk_cols: Vec<usize>) -> Self {
        NaiveImage {
            rows: stable_rows.to_vec(),
            origin: (0..stable_rows.len() as u64).map(Some).collect(),
            stable_count: stable_rows.len() as u64,
            sk_cols,
        }
    }

    /// Visible rows, in order.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Number of visible rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row is visible.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert `tuple` so it becomes visible row `rid`; returns the SID a
    /// PDT must use for this insert (the SID of the first following stable
    /// tuple, or the stable row count when none follows).
    pub fn insert(&mut self, rid: usize, tuple: Tuple) -> u64 {
        assert!(rid <= self.rows.len(), "insert position out of range");
        let sid = self.origin[rid..]
            .iter()
            .find_map(|o| *o)
            .unwrap_or(self.stable_count);
        self.rows.insert(rid, tuple);
        self.origin.insert(rid, None);
        sid
    }

    /// Delete visible row `rid`; returns the deleted row's sort-key values
    /// (what a PDT records in its delete table).
    pub fn delete(&mut self, rid: usize) -> Vec<Value> {
        assert!(rid < self.rows.len(), "delete position out of range");
        let row = self.rows.remove(rid);
        self.origin.remove(rid);
        self.sk_cols.iter().map(|&c| row[c].clone()).collect()
    }

    /// Set column `col` of visible row `rid`.
    pub fn modify(&mut self, rid: usize, col: usize, value: Value) {
        assert!(rid < self.rows.len(), "modify position out of range");
        self.rows[rid][col] = value;
    }

    /// SID of the stable tuple behind visible row `rid`, if it is stable.
    pub fn origin_of(&self, rid: usize) -> Option<u64> {
        self.origin[rid]
    }

    /// Current RID of stable tuple `sid`, if it is still visible.
    pub fn rid_of_stable(&self, sid: u64) -> Option<usize> {
        self.origin.iter().position(|o| *o == Some(sid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| vec![Value::Int(i)]).collect()
    }

    #[test]
    fn insert_tracks_origin_and_sid() {
        let mut m = NaiveImage::new(&rows(3), vec![0]);
        let sid = m.insert(1, vec![Value::Int(99)]);
        assert_eq!(sid, 1);
        assert_eq!(m.rows()[1], vec![Value::Int(99)]);
        assert_eq!(m.origin_of(1), None);
        assert_eq!(m.origin_of(2), Some(1));
        // insert at the very end
        let sid = m.insert(4, vec![Value::Int(77)]);
        assert_eq!(sid, 3);
    }

    #[test]
    fn delete_returns_sort_key() {
        let mut m = NaiveImage::new(&rows(3), vec![0]);
        let sk = m.delete(2);
        assert_eq!(sk, vec![Value::Int(2)]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.rid_of_stable(2), None);
    }

    #[test]
    fn modify_in_place() {
        let mut m = NaiveImage::new(&rows(2), vec![0]);
        m.modify(0, 0, Value::Int(-1));
        assert_eq!(m.rows()[0][0], Value::Int(-1));
    }

    #[test]
    fn sid_after_deletions_skips_to_next_stable() {
        let mut m = NaiveImage::new(&rows(4), vec![0]);
        m.delete(1); // stable 1 gone
                     // inserting where stable 1 used to be: next stable is 2
        let sid = m.insert(1, vec![Value::Int(15)]);
        assert_eq!(sid, 2);
    }
}
