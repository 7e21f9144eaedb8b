//! Columnar row batches flowing between operators, and the row keys the
//! hash operators build on them.

use columnar::{ColumnVec, StrDict, Tuple, Value, ValueType};
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

/// A block of rows in columnar layout.
///
/// `rid_start` carries the RID of the first row *for scan outputs* (merge
/// scans emit consecutively numbered visible rows); operators that
/// reshuffle rows (joins, aggregation, sort) reset it to 0 — RIDs are a
/// storage-level concept consumed by DML, not a query-level one.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The column data, one vector per projected column.
    pub cols: Vec<ColumnVec>,
    /// RID of the first row (scan outputs only; 0 after reshuffling ops).
    pub rid_start: u64,
}

impl Batch {
    /// An empty batch with the given column types.
    pub fn empty(types: &[ValueType]) -> Batch {
        Batch::with_capacity(types, 0)
    }

    /// An empty batch whose columns reserve room for `cap` rows up front —
    /// use on ingest paths so repeated pushes never re-grow each column.
    pub fn with_capacity(types: &[ValueType], cap: usize) -> Batch {
        Batch {
            cols: types
                .iter()
                .map(|&t| ColumnVec::with_capacity(t, cap))
                .collect(),
            rid_start: 0,
        }
    }

    /// Build a batch from borrowed row tuples (clones every value).
    pub fn from_rows(types: &[ValueType], rows: &[Tuple]) -> Batch {
        let mut b = Batch::with_capacity(types, rows.len());
        for r in rows {
            for (c, v) in r.iter().enumerate() {
                b.cols[c].push(v);
            }
        }
        b
    }

    /// Build a batch from owned row tuples: values move into the columns,
    /// so strings transfer their buffers instead of being re-cloned.
    pub fn from_owned_rows(types: &[ValueType], rows: Vec<Tuple>) -> Batch {
        let mut b = Batch::with_capacity(types, rows.len());
        for r in rows {
            b.push_owned_row(r);
        }
        b
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.cols.first().map(|c| c.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// The column types, in projection order.
    pub fn types(&self) -> Vec<ValueType> {
        self.cols.iter().map(|c| c.vtype()).collect()
    }

    /// Read row `i` as a tuple (clones; use column access on hot paths).
    pub fn row(&self, i: usize) -> Tuple {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// All rows (test convenience).
    pub fn rows(&self) -> Vec<Tuple> {
        (0..self.num_rows()).map(|i| self.row(i)).collect()
    }

    /// Keep only the rows at the given indices (selection-vector apply).
    /// Each column keeps its representation: coded strings stay codes.
    pub fn gather(&self, idx: &[usize]) -> Batch {
        let cols = self.cols.iter().map(|c| gather(c, idx)).collect();
        Batch { cols, rid_start: 0 }
    }

    /// The listed columns, borrowed (a key's columns).
    pub(crate) fn cols_at(&self, idx: &[usize]) -> Vec<&ColumnVec> {
        idx.iter().map(|&c| &self.cols[c]).collect()
    }

    /// Keep only the listed columns, in the listed order.
    pub fn project(&self, cols: &[usize]) -> Batch {
        Batch {
            cols: cols.iter().map(|&c| self.cols[c].clone()).collect(),
            rid_start: self.rid_start,
        }
    }

    /// Horizontally concatenate two equal-length batches.
    pub fn zip(mut self, other: Batch) -> Batch {
        debug_assert_eq!(self.num_rows(), other.num_rows());
        self.cols.extend(other.cols);
        self
    }

    /// Append one row given as borrowed values (clones).
    pub fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (c, v) in row.iter().enumerate() {
            self.cols[c].push(v);
        }
    }

    /// Append one owned row; values move into the columns without cloning.
    pub fn push_owned_row(&mut self, row: Tuple) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (c, v) in row.into_iter().enumerate() {
            self.cols[c].push_owned(v);
        }
    }

    /// Reserve room for `additional` more rows in every column.
    pub fn reserve(&mut self, additional: usize) {
        for c in &mut self.cols {
            c.reserve(additional);
        }
    }
}

/// The rows of `c` at `idx`, in `c`'s representation.
pub(crate) fn gather(c: &ColumnVec, idx: &[usize]) -> ColumnVec {
    let mut out = c.empty_like();
    out.extend_gather(c, idx);
    out
}

/// Whether row `i` of the key columns `a` equals row `j` of `b`. The key
/// rule: cells of different types never match, strings match by content
/// (coded or not), and doubles match by bit pattern — the executor's
/// total order, so `-0.0` and `0.0` are two keys and a NaN matches a NaN
/// with the same bits.
pub(crate) fn keys_eq(a: &[&ColumnVec], i: usize, b: &[&ColumnVec], j: usize) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.vtype() == y.vtype() && x.cmp_cells(i, y, j).is_eq())
}

/// Row ids `0..len()` by the hash of their key: open addressing with
/// linear probing, so the ids sharing a hash lie along one probe sequence
/// in insertion order. Callers hash with [`KeyIndex::hash_rows`] and check
/// each candidate with [`keys_eq`].
pub(crate) struct KeyIndex {
    /// `id + 1` per slot, 0 when empty; a power of two, at most half full.
    slots: Vec<u32>,
    /// The hash of every id.
    hashes: Vec<u64>,
    /// Drawn per index, as std's maps draw theirs: keys come from table
    /// data, and a fixed seed would let one set of keys collide in every run.
    seed: u64,
    /// The string hash of each code, per dictionary met (the most recent
    /// [`CODE_HASH_DICTS`]), filled on first use: 0 means not yet hashed,
    /// so a string that hashes to 0 is merely hashed again. Holding the
    /// `Arc` keeps a dropped dictionary's address from naming a new one.
    code_hashes: Vec<(Arc<StrDict>, Vec<u64>)>,
}

/// How many dictionaries' code hashes a [`KeyIndex`] keeps: one per
/// partition of a scanned table is the common need.
const CODE_HASH_DICTS: usize = 16;

impl Default for KeyIndex {
    fn default() -> Self {
        KeyIndex {
            slots: Vec::new(),
            hashes: Vec::new(),
            seed: RandomState::new().hash_one(0u8),
            code_hashes: Vec::new(),
        }
    }
}

impl KeyIndex {
    /// One hash per row of the key columns `keys` (`n` rows), computed
    /// column by column. Keys [`keys_eq`] calls equal hash equally whatever
    /// their representation: a string hashes its bytes, coded or not — a
    /// code's once per dictionary, remembered.
    pub(crate) fn hash_rows(&mut self, keys: &[&ColumnVec], n: usize) -> Vec<u64> {
        let (mut h, seed) = (vec![self.seed; n], self.seed);
        for col in keys {
            match col {
                ColumnVec::Bool(v) => mix(&mut h, v.iter().map(|&b| b as u64)),
                ColumnVec::Int(v) => mix(&mut h, v.iter().map(|&x| x as u64)),
                ColumnVec::Double(v) => mix(&mut h, v.iter().map(|x| x.to_bits())),
                ColumnVec::Date(v) => mix(&mut h, v.iter().map(|&d| d as u64)),
                ColumnVec::Str(v) => mix(&mut h, v.iter().map(|s| hash_str(seed, s))),
                ColumnVec::Coded(v, d) => {
                    let memo = self.code_hashes(d);
                    let hashed = v.iter().map(|&c| {
                        let m = &mut memo[c as usize];
                        if *m == 0 {
                            *m = hash_str(seed, d.get(c));
                        }
                        *m
                    });
                    mix(&mut h, hashed)
                }
            }
        }
        // fold the well-mixed high half into the low bits the slots index by
        h.iter_mut().for_each(|x| *x ^= *x >> 32);
        h
    }

    /// The code-hash memo of `dict`, started empty on first sight.
    fn code_hashes(&mut self, dict: &Arc<StrDict>) -> &mut Vec<u64> {
        let at = match self
            .code_hashes
            .iter()
            .position(|(d, _)| Arc::ptr_eq(d, dict))
        {
            Some(at) => at,
            None => {
                if self.code_hashes.len() == CODE_HASH_DICTS {
                    self.code_hashes.remove(0);
                }
                self.code_hashes.push((dict.clone(), vec![0; dict.len()]));
                self.code_hashes.len() - 1
            }
        };
        &mut self.code_hashes[at].1
    }

    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Room for `additional` more ids without growing.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let want = (2 * (self.hashes.len() + additional)).next_power_of_two();
        if want > self.slots.len() {
            self.resize(want.max(16));
        }
    }

    /// Re-place every id in `slots` slots.
    fn resize(&mut self, slots: usize) {
        self.slots = vec![0; slots];
        for (id, &h) in self.hashes.iter().enumerate() {
            place(&mut self.slots, h, id);
        }
    }

    /// Add the next id, `len()`, under hash `h`.
    pub(crate) fn insert(&mut self, h: u64) -> u32 {
        if 2 * (self.hashes.len() + 1) > self.slots.len() {
            self.resize((2 * self.slots.len()).max(16));
        }
        let id = self.hashes.len();
        self.hashes.push(h);
        place(&mut self.slots, h, id);
        id as u32
    }

    /// The ids inserted under hash `h`, in insertion order.
    pub(crate) fn candidates(&self, h: u64) -> impl Iterator<Item = u32> + '_ {
        let mask = self.slots.len().wrapping_sub(1);
        let mut s = h as usize & mask;
        std::iter::from_fn(move || loop {
            let id = match self.slots.get(s) {
                Some(&id) if id != 0 => id - 1,
                _ => return None,
            };
            s = (s + 1) & mask;
            if self.hashes[id as usize] == h {
                return Some(id);
            }
        })
    }
}

const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

fn mix(h: &mut [u64], words: impl Iterator<Item = u64>) {
    for (h, w) in h.iter_mut().zip(words) {
        *h = (h.rotate_left(26) ^ w).wrapping_mul(MIX);
    }
}

fn hash_str(seed: u64, s: &str) -> u64 {
    s.as_bytes()
        .chunks(8)
        .fold(seed ^ s.len() as u64, |h, chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            (h.rotate_left(26) ^ u64::from_le_bytes(word)).wrapping_mul(MIX)
        })
}

fn place(slots: &mut [u32], h: u64, id: usize) {
    let mask = slots.len() - 1;
    let mut s = h as usize & mask;
    while slots[s] != 0 {
        s = (s + 1) & mask;
    }
    slots[s] = id as u32 + 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Batch {
        Batch::from_rows(
            &[ValueType::Int, ValueType::Str],
            &[
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Int(2), Value::Str("b".into())],
                vec![Value::Int(3), Value::Str("c".into())],
            ],
        )
    }

    #[test]
    fn construction_and_access() {
        let b = batch();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.num_cols(), 2);
        assert_eq!(b.row(1), vec![Value::Int(2), Value::Str("b".into())]);
        assert_eq!(b.types(), vec![ValueType::Int, ValueType::Str]);
    }

    #[test]
    fn gather_selects_rows() {
        let b = batch().gather(&[2, 0]);
        assert_eq!(b.rows()[0][0], Value::Int(3));
        assert_eq!(b.rows()[1][0], Value::Int(1));
    }

    #[test]
    fn project_and_zip() {
        let b = batch();
        let left = b.project(&[1]);
        let right = b.project(&[0]);
        let z = left.zip(right);
        assert_eq!(z.num_cols(), 2);
        assert_eq!(z.row(0), vec![Value::Str("a".into()), Value::Int(1)]);
    }

    #[test]
    fn gather_keeps_coded_strings_coded() {
        let dict = columnar::StrDict::build(["a", "b"]);
        let b = Batch {
            cols: vec![ColumnVec::Coded(vec![1, 0, 1], dict)],
            rid_start: 0,
        };
        let g = b.gather(&[2, 1]);
        assert_eq!(g.cols[0].as_codes(), Some(&[1, 0][..]));
        assert_eq!(g.row(1), vec![Value::Str("a".into())]);
    }

    #[test]
    fn key_index_keeps_equal_hashes_in_insertion_order() {
        let mut idx = KeyIndex::default();
        assert_eq!(idx.candidates(7).count(), 0);
        // three hashes sharing their low bits, so one probe sequence
        // holds all 40 ids; growth re-places them without reordering
        for i in 0..40u32 {
            assert_eq!(idx.insert(((i % 3) as u64) << 40), i);
        }
        assert_eq!(idx.len(), 40);
        let ids: Vec<u32> = idx.candidates(1 << 40).collect();
        assert_eq!(ids, (1..40).step_by(3).collect::<Vec<u32>>());
    }

    #[test]
    fn keys_match_by_content_and_doubles_by_bits() {
        let dict = columnar::StrDict::build(["x", "y"]);
        let coded = ColumnVec::Coded(vec![1, 0], dict);
        let plain = ColumnVec::Str(vec!["x".into(), "y".into()]);
        let dbl = ColumnVec::Double(vec![-0.0, 0.0, f64::NAN, f64::NAN]);
        let (c, p, d) = (&[&coded][..], &[&plain][..], &[&dbl][..]);
        let mut idx = KeyIndex::default();
        assert!(keys_eq(c, 0, p, 1) && !keys_eq(c, 0, p, 0));
        assert_eq!(idx.hash_rows(c, 2)[0], idx.hash_rows(p, 2)[1]);
        assert!(!keys_eq(d, 0, d, 1), "-0.0 and 0.0 are two keys");
        assert!(keys_eq(d, 2, d, 3), "NaN matches NaN");
        let h = idx.hash_rows(d, 4);
        assert!(h[0] != h[1] && h[2] == h[3]);
        let int = ColumnVec::Int(vec![0]);
        assert!(!keys_eq(&[&int], 0, d, 1), "types never match across");
    }

    #[test]
    fn code_hashes_are_remembered_per_dictionary() {
        let (a, b) = (
            columnar::StrDict::build(["x", "y", "z"]),
            columnar::StrDict::build(["y"]),
        );
        let plain = ColumnVec::Str(vec!["z".into(), "y".into(), "y".into()]);
        let mut idx = KeyIndex::default();
        let want = idx.hash_rows(&[&plain], 3);
        let coded = ColumnVec::Coded(vec![2, 1, 1], a.clone());
        for _ in 0..2 {
            assert_eq!(idx.hash_rows(&[&coded], 3), want);
        }
        let other = ColumnVec::Coded(vec![0], b);
        assert_eq!(idx.hash_rows(&[&other], 1), want[1..2]);
        // one memo per dictionary, filled only at the codes met
        assert_eq!(idx.code_hashes.len(), 2);
        assert_eq!(idx.code_hashes[0].1[0], 0, "x was never hashed");
        assert!(Arc::ptr_eq(&idx.code_hashes[0].0, &a));
        // a reserved index places its ids without growing
        idx.reserve(100);
        let slots = idx.slots.len();
        for h in 0..100 {
            idx.insert(h);
        }
        assert_eq!((idx.slots.len(), slots), (256, 256));
    }

    #[test]
    fn push_row_appends() {
        let mut b = batch();
        b.push_row(&[Value::Int(9), Value::Str("z".into())]);
        assert_eq!(b.num_rows(), 4);
    }

    #[test]
    fn owned_construction_matches_borrowed() {
        let types = [ValueType::Int, ValueType::Str];
        let rows = vec![
            vec![Value::Int(1), Value::Str("a".into())],
            vec![Value::Int(2), Value::Str("b".into())],
        ];
        let borrowed = Batch::from_rows(&types, &rows);
        let mut owned = Batch::from_owned_rows(&types, rows.clone());
        assert_eq!(owned.rows(), borrowed.rows());
        owned.reserve(16);
        owned.push_owned_row(vec![Value::Int(3), Value::Str("c".into())]);
        assert_eq!(owned.num_rows(), 3);
        assert_eq!(owned.row(2), vec![Value::Int(3), Value::Str("c".into())]);
    }
}
