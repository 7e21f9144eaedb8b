//! Typed column vectors.
//!
//! [`ColumnVec`] is the in-memory decoded representation of a column
//! segment. It is used by the scan path (decoded blocks), by the executor's
//! batches, and by the PDT/VDT value spaces (eq. (7) of the paper stores
//! inserted tuples, deleted sort keys, and per-column modified values in
//! columnar tables).

use std::sync::Arc;

use crate::dict::StrDict;
use crate::value::{Value, ValueType};

/// A typed vector of column values.
///
/// Nulls are not representable inside typed vectors; the schemas used in the
/// paper's workloads (inventory, TPC-H) are NOT NULL throughout. `Value::Null`
/// pushed into a column stores the type's default and is intended only for
/// padding in tests.
///
/// String columns come in two representations: [`ColumnVec::Str`] holds the
/// strings themselves, [`ColumnVec::Coded`] holds `u32` codes into a shared
/// order-preserving [`StrDict`]. Both report [`ValueType::Str`]; a coded
/// vector transparently *materializes* into `Str` when a plain string its
/// dictionary does not contain must be stored, and recodes into the union
/// of two dictionaries when extended from another one's codes. MergeScan
/// works on codes and emits them; the executor's operators keep them coded
/// and read strings through [`ColumnVec::str_at`], so a string
/// materializes only where a caller asks for a [`Value`]
/// ([`ColumnVec::get`]) or one outside the dictionary must be stored.
#[derive(Debug, Clone)]
pub enum ColumnVec {
    /// Booleans.
    Bool(Vec<bool>),
    /// 64-bit signed integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Double(Vec<f64>),
    /// Strings, materialized.
    Str(Vec<String>),
    /// Strings as `u32` codes into a shared order-preserving dictionary.
    Coded(Vec<u32>, Arc<StrDict>),
    /// Dates as day numbers.
    Date(Vec<i32>),
}

impl PartialEq for ColumnVec {
    /// Value equality: `Str` and `Coded` columns compare by the strings
    /// they represent, regardless of representation.
    fn eq(&self, other: &Self) -> bool {
        use ColumnVec::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Double(a), Double(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            (Coded(a, da), Coded(b, db)) if Arc::ptr_eq(da, db) => a == b,
            (a @ (Str(_) | Coded(..)), b @ (Str(_) | Coded(..))) => {
                a.len() == b.len() && (0..a.len()).all(|i| a.str_at(i) == b.str_at(i))
            }
            _ => false,
        }
    }
}

impl ColumnVec {
    /// An empty column of the given type.
    pub fn new(vtype: ValueType) -> Self {
        Self::with_capacity(vtype, 0)
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(vtype: ValueType, cap: usize) -> Self {
        match vtype {
            ValueType::Bool => ColumnVec::Bool(Vec::with_capacity(cap)),
            ValueType::Int => ColumnVec::Int(Vec::with_capacity(cap)),
            ValueType::Double => ColumnVec::Double(Vec::with_capacity(cap)),
            ValueType::Str => ColumnVec::Str(Vec::with_capacity(cap)),
            ValueType::Date => ColumnVec::Date(Vec::with_capacity(cap)),
        }
    }

    /// An empty dictionary-coded string column over `dict`.
    pub fn new_coded(dict: Arc<StrDict>) -> Self {
        ColumnVec::Coded(Vec::new(), dict)
    }

    /// An empty column of this one's representation: coded over the same
    /// dictionary when this is coded (so merge scratch and outputs stay on
    /// the `u32` path), plainly typed otherwise.
    pub fn empty_like(&self) -> Self {
        match self.dict() {
            Some(d) => ColumnVec::new_coded(d.clone()),
            None => ColumnVec::new(self.vtype()),
        }
    }

    /// Empty this column and give it `like`'s representation, keeping the
    /// allocation when the representation already matches (a reused merge
    /// output buffer).
    pub fn reset_like(&mut self, like: &ColumnVec) {
        let same = match (&*self, like) {
            (ColumnVec::Coded(_, a), ColumnVec::Coded(_, b)) => Arc::ptr_eq(a, b),
            (a, b) => std::mem::discriminant(a) == std::mem::discriminant(b),
        };
        if same {
            self.clear();
        } else {
            *self = like.empty_like();
        }
    }

    /// The element type.
    pub fn vtype(&self) -> ValueType {
        match self {
            ColumnVec::Bool(_) => ValueType::Bool,
            ColumnVec::Int(_) => ValueType::Int,
            ColumnVec::Double(_) => ValueType::Double,
            ColumnVec::Str(_) | ColumnVec::Coded(..) => ValueType::Str,
            ColumnVec::Date(_) => ValueType::Date,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Bool(v) => v.len(),
            ColumnVec::Int(v) => v.len(),
            ColumnVec::Double(v) => v.len(),
            ColumnVec::Str(v) => v.len(),
            ColumnVec::Coded(v, _) => v.len(),
            ColumnVec::Date(v) => v.len(),
        }
    }

    /// True when the column holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dictionary of a coded column, if this is one.
    pub fn dict(&self) -> Option<&Arc<StrDict>> {
        match self {
            ColumnVec::Coded(_, d) => Some(d),
            _ => None,
        }
    }

    /// The raw codes of a coded column, if this is one.
    pub fn as_codes(&self) -> Option<&[u32]> {
        match self {
            ColumnVec::Coded(v, _) => Some(v),
            _ => None,
        }
    }

    /// Borrow element `i` of a string column (`Str` or `Coded`) without
    /// allocating. Panics on non-string columns.
    pub fn str_at(&self, i: usize) -> &str {
        match self {
            ColumnVec::Str(v) => &v[i],
            ColumnVec::Coded(v, d) => d.get(v[i]),
            other => panic!("expected Str column, got {:?}", other.vtype()),
        }
    }

    /// Convert a [`ColumnVec::Coded`] column into [`ColumnVec::Str`] in
    /// place (the fallback when a string outside the dictionary must be
    /// stored). No-op on every other representation.
    pub fn materialize_in_place(&mut self) {
        if let ColumnVec::Coded(codes, dict) = self {
            let strs = codes.iter().map(|&c| dict.get(c).to_string()).collect();
            *self = ColumnVec::Str(strs);
        }
    }

    /// Append a value; `Null` appends the type default (see type docs).
    pub fn push(&mut self, v: &Value) {
        if let ColumnVec::Coded(codes, dict) = &mut *self {
            let s: &str = match v {
                Value::Str(s) => s,
                Value::Null => "",
                _ => panic!("type mismatch: pushing {v:?} into Str column"),
            };
            if let Some(c) = dict.code_of(s) {
                codes.push(c);
                return;
            }
            self.materialize_in_place();
        }
        match (self, v) {
            (ColumnVec::Bool(c), Value::Bool(b)) => c.push(*b),
            (ColumnVec::Bool(c), Value::Null) => c.push(false),
            (ColumnVec::Int(c), Value::Int(i)) => c.push(*i),
            (ColumnVec::Int(c), Value::Null) => c.push(0),
            (ColumnVec::Double(c), Value::Double(d)) => c.push(*d),
            (ColumnVec::Double(c), Value::Int(i)) => c.push(*i as f64),
            (ColumnVec::Double(c), Value::Null) => c.push(0.0),
            (ColumnVec::Str(c), Value::Str(s)) => c.push(s.clone()),
            (ColumnVec::Str(c), Value::Null) => c.push(String::new()),
            (ColumnVec::Date(c), Value::Date(d)) => c.push(*d),
            (ColumnVec::Date(c), Value::Null) => c.push(0),
            (col, v) => panic!("type mismatch: pushing {v:?} into {:?} column", col.vtype()),
        }
    }

    /// Append a value by move — strings transfer their buffer instead of
    /// being re-cloned (the batch-building hot path). `Null` appends the
    /// type default, as in [`ColumnVec::push`].
    pub fn push_owned(&mut self, v: Value) {
        if matches!(self, ColumnVec::Coded(..)) {
            self.push(&v);
            return;
        }
        match (self, v) {
            (ColumnVec::Str(c), Value::Str(s)) => c.push(s),
            (ColumnVec::Bool(c), Value::Bool(b)) => c.push(b),
            (ColumnVec::Int(c), Value::Int(i)) => c.push(i),
            (ColumnVec::Double(c), Value::Double(d)) => c.push(d),
            (ColumnVec::Double(c), Value::Int(i)) => c.push(i as f64),
            (ColumnVec::Date(c), Value::Date(d)) => c.push(d),
            (col, Value::Null) => col.push(&Value::Null),
            (col, v) => panic!("type mismatch: pushing {v:?} into {:?} column", col.vtype()),
        }
    }

    /// Reserve capacity for at least `additional` more elements.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            ColumnVec::Bool(v) => v.reserve(additional),
            ColumnVec::Int(v) => v.reserve(additional),
            ColumnVec::Double(v) => v.reserve(additional),
            ColumnVec::Str(v) => v.reserve(additional),
            ColumnVec::Coded(v, _) => v.reserve(additional),
            ColumnVec::Date(v) => v.reserve(additional),
        }
    }

    /// Read element `i` as a [`Value`] (clones strings).
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnVec::Bool(v) => Value::Bool(v[i]),
            ColumnVec::Int(v) => Value::Int(v[i]),
            ColumnVec::Double(v) => Value::Double(v[i]),
            ColumnVec::Str(v) => Value::Str(v[i].clone()),
            ColumnVec::Coded(v, d) => Value::Str(d.get(v[i]).to_string()),
            ColumnVec::Date(v) => Value::Date(v[i]),
        }
    }

    /// Overwrite element `i` (used by PDT in-place value-space updates).
    pub fn set(&mut self, i: usize, v: &Value) {
        if let ColumnVec::Coded(codes, dict) = &mut *self {
            if let Value::Str(s) = v {
                if let Some(c) = dict.code_of(s) {
                    codes[i] = c;
                    return;
                }
                self.materialize_in_place();
            } else {
                panic!("type mismatch: setting {v:?} in Str column");
            }
        }
        match (self, v) {
            (ColumnVec::Bool(c), Value::Bool(b)) => c[i] = *b,
            (ColumnVec::Int(c), Value::Int(x)) => c[i] = *x,
            (ColumnVec::Double(c), Value::Double(d)) => c[i] = *d,
            (ColumnVec::Double(c), Value::Int(x)) => c[i] = *x as f64,
            (ColumnVec::Str(c), Value::Str(s)) => c[i] = s.clone(),
            (ColumnVec::Date(c), Value::Date(d)) => c[i] = *d,
            (col, v) => panic!("type mismatch: setting {v:?} in {:?} column", col.vtype()),
        }
    }

    /// Borrow the native `i64` slice; panics unless this is an Int column.
    pub fn as_int(&self) -> &[i64] {
        match self {
            ColumnVec::Int(v) => v,
            other => panic!("expected Int column, got {:?}", other.vtype()),
        }
    }

    /// Borrow the native `f64` slice; panics unless this is a Double column.
    pub fn as_double(&self) -> &[f64] {
        match self {
            ColumnVec::Double(v) => v,
            other => panic!("expected Double column, got {:?}", other.vtype()),
        }
    }

    /// Borrow the native `String` slice; panics unless this is a
    /// *materialized* string column. Scans emit coded columns, so code
    /// that reads a string column of a batch uses [`ColumnVec::str_at`],
    /// which serves both representations.
    pub fn as_str(&self) -> &[String] {
        match self {
            ColumnVec::Str(v) => v,
            ColumnVec::Coded(..) => {
                panic!("coded string column not materialized (read it with str_at)")
            }
            other => panic!("expected Str column, got {:?}", other.vtype()),
        }
    }

    /// Borrow the native date slice; panics unless this is a Date column.
    pub fn as_date(&self) -> &[i32] {
        match self {
            ColumnVec::Date(v) => v,
            other => panic!("expected Date column, got {:?}", other.vtype()),
        }
    }

    /// Borrow the native bool slice; panics unless this is a Bool column.
    pub fn as_bool(&self) -> &[bool] {
        match self {
            ColumnVec::Bool(v) => v,
            other => panic!("expected Bool column, got {:?}", other.vtype()),
        }
    }

    /// Append a sub-range `[from, to)` of `other` to `self` (block
    /// pass-through copies in MergeScan). Coded-to-coded copies over the
    /// same dictionary are pure `u32` `memcpy`s; over two dictionaries
    /// (two partitions' columns), both sides recode into their union and
    /// stay coded.
    pub fn extend_range(&mut self, other: &ColumnVec, from: usize, to: usize) {
        if let ColumnVec::Coded(codes, dict) = &mut *self {
            match other {
                ColumnVec::Coded(b, d2) if Arc::ptr_eq(dict, d2) => {
                    codes.extend_from_slice(&b[from..to]);
                    return;
                }
                ColumnVec::Coded(b, d2) => {
                    let map = recode_into_union(codes, dict, d2);
                    codes.extend(b[from..to].iter().map(|&c| map[c as usize]));
                    return;
                }
                ColumnVec::Str(_) => self.materialize_in_place(),
                b => panic!(
                    "type mismatch: extending Str column from {:?} column",
                    b.vtype()
                ),
            }
        }
        match (self, other) {
            (ColumnVec::Bool(a), ColumnVec::Bool(b)) => a.extend_from_slice(&b[from..to]),
            (ColumnVec::Int(a), ColumnVec::Int(b)) => a.extend_from_slice(&b[from..to]),
            (ColumnVec::Double(a), ColumnVec::Double(b)) => a.extend_from_slice(&b[from..to]),
            (ColumnVec::Str(a), ColumnVec::Str(b)) => a.extend_from_slice(&b[from..to]),
            (ColumnVec::Str(a), ColumnVec::Coded(b, d)) => {
                a.extend(b[from..to].iter().map(|&c| d.get(c).to_string()))
            }
            (ColumnVec::Date(a), ColumnVec::Date(b)) => a.extend_from_slice(&b[from..to]),
            (a, b) => panic!(
                "type mismatch: extending {:?} column from {:?} column",
                a.vtype(),
                b.vtype()
            ),
        }
    }

    /// Gather the listed indices of `other` onto the end of `self`
    /// (selection-vector application). Coded columns stay coded as in
    /// [`ColumnVec::extend_range`].
    pub fn extend_gather(&mut self, other: &ColumnVec, idx: &[usize]) {
        if let ColumnVec::Coded(codes, dict) = &mut *self {
            match other {
                ColumnVec::Coded(b, d2) if Arc::ptr_eq(dict, d2) => {
                    codes.extend(idx.iter().map(|&i| b[i]));
                    return;
                }
                ColumnVec::Coded(..) if idx.is_empty() => return,
                ColumnVec::Coded(b, d2) => {
                    let map = recode_into_union(codes, dict, d2);
                    codes.extend(idx.iter().map(|&i| map[b[i] as usize]));
                    return;
                }
                ColumnVec::Str(b) => {
                    // stay coded while every gathered string is in the dict
                    if let Some(gathered) = idx
                        .iter()
                        .map(|&i| dict.code_of(&b[i]))
                        .collect::<Option<Vec<u32>>>()
                    {
                        codes.extend(gathered);
                        return;
                    }
                    self.materialize_in_place();
                }
                b => panic!(
                    "type mismatch: gathering Str column from {:?} column",
                    b.vtype()
                ),
            }
        }
        match (self, other) {
            (ColumnVec::Bool(a), ColumnVec::Bool(b)) => a.extend(idx.iter().map(|&i| b[i])),
            (ColumnVec::Int(a), ColumnVec::Int(b)) => a.extend(idx.iter().map(|&i| b[i])),
            (ColumnVec::Double(a), ColumnVec::Double(b)) => a.extend(idx.iter().map(|&i| b[i])),
            (ColumnVec::Str(a), ColumnVec::Str(b)) => a.extend(idx.iter().map(|&i| b[i].clone())),
            (ColumnVec::Str(a), ColumnVec::Coded(b, d)) => {
                a.extend(idx.iter().map(|&i| d.get(b[i]).to_string()))
            }
            (ColumnVec::Date(a), ColumnVec::Date(b)) => a.extend(idx.iter().map(|&i| b[i])),
            (a, b) => panic!(
                "type mismatch: gathering {:?} column from {:?} column",
                a.vtype(),
                b.vtype()
            ),
        }
    }

    /// A representation-preserving copy of rows `[from, to)` — coded
    /// columns stay coded (window clipping in the scan path).
    pub fn slice_range(&self, from: usize, to: usize) -> ColumnVec {
        match self {
            ColumnVec::Bool(v) => ColumnVec::Bool(v[from..to].to_vec()),
            ColumnVec::Int(v) => ColumnVec::Int(v[from..to].to_vec()),
            ColumnVec::Double(v) => ColumnVec::Double(v[from..to].to_vec()),
            ColumnVec::Str(v) => ColumnVec::Str(v[from..to].to_vec()),
            ColumnVec::Coded(v, d) => ColumnVec::Coded(v[from..to].to_vec(), d.clone()),
            ColumnVec::Date(v) => ColumnVec::Date(v[from..to].to_vec()),
        }
    }

    /// Keep only rows `[from, to)`, in place — [`ColumnVec::slice_range`]
    /// for a caller that owns the column (a decoded block clipped to the
    /// scan range).
    pub fn retain_range(&mut self, from: usize, to: usize) {
        fn cut<T>(v: &mut Vec<T>, from: usize, to: usize) {
            v.truncate(to);
            v.drain(..from);
        }
        match self {
            ColumnVec::Bool(v) => cut(v, from, to),
            ColumnVec::Int(v) => cut(v, from, to),
            ColumnVec::Double(v) => cut(v, from, to),
            ColumnVec::Str(v) => cut(v, from, to),
            ColumnVec::Coded(v, _) => cut(v, from, to),
            ColumnVec::Date(v) => cut(v, from, to),
        }
    }

    /// Compare element `i` of `self` with element `j` of `other` using
    /// native comparisons — coded columns over the same dictionary compare
    /// raw `u32` codes, string columns compare `&str` without allocating.
    pub fn cmp_cells(&self, i: usize, other: &ColumnVec, j: usize) -> std::cmp::Ordering {
        use ColumnVec::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a[i].cmp(&b[j]),
            (Int(a), Int(b)) => a[i].cmp(&b[j]),
            (Double(a), Double(b)) => a[i].total_cmp(&b[j]),
            (Date(a), Date(b)) => a[i].cmp(&b[j]),
            (Coded(a, da), Coded(b, db)) if Arc::ptr_eq(da, db) => a[i].cmp(&b[j]),
            (a @ (Str(_) | Coded(..)), b @ (Str(_) | Coded(..))) => a.str_at(i).cmp(b.str_at(j)),
            (a, b) => a.get(i).cmp(&b.get(j)),
        }
    }

    /// Rough in-memory footprint in bytes (for PDT memory accounting).
    /// Coded columns count 4 bytes per element; the shared dictionary is
    /// accounted once by its owner, not per vector.
    pub fn heap_bytes(&self) -> usize {
        match self {
            ColumnVec::Bool(v) => v.len(),
            ColumnVec::Int(v) => v.len() * 8,
            ColumnVec::Double(v) => v.len() * 8,
            ColumnVec::Str(v) => v.iter().map(|s| s.len() + 24).sum(),
            ColumnVec::Coded(v, _) => v.len() * 4,
            ColumnVec::Date(v) => v.len() * 4,
        }
    }

    /// Remove all elements, keeping the representation (and dictionary).
    pub fn clear(&mut self) {
        match self {
            ColumnVec::Bool(v) => v.clear(),
            ColumnVec::Int(v) => v.clear(),
            ColumnVec::Double(v) => v.clear(),
            ColumnVec::Str(v) => v.clear(),
            ColumnVec::Coded(v, _) => v.clear(),
            ColumnVec::Date(v) => v.clear(),
        }
    }

    /// Iterate the column as `Value`s (test/debug convenience; clones).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// Recode `codes` over `dict` into the union of `dict` and `other` (no
/// copy when `dict` already holds all of `other`), and return the map
/// from `other`'s codes to the union's.
fn recode_into_union(codes: &mut [u32], dict: &mut Arc<StrDict>, other: &Arc<StrDict>) -> Vec<u32> {
    let (union, mine, theirs) = StrDict::union(dict, other);
    if !Arc::ptr_eq(&union, dict) {
        codes.iter_mut().for_each(|c| *c = mine[*c as usize]);
        *dict = union;
    }
    theirs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut c = ColumnVec::new(ValueType::Str);
        c.push(&"a".into());
        c.push(&"b".into());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Value::Str("b".into()));
    }

    #[test]
    fn int_promotes_into_double() {
        let mut c = ColumnVec::new(ValueType::Double);
        c.push(&Value::Int(3));
        assert_eq!(c.get(0), Value::Double(3.0));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn push_type_mismatch_panics() {
        let mut c = ColumnVec::new(ValueType::Int);
        c.push(&"oops".into());
    }

    #[test]
    fn set_in_place() {
        let mut c = ColumnVec::new(ValueType::Int);
        c.push(&Value::Int(5));
        c.set(0, &Value::Int(9));
        assert_eq!(c.get(0), Value::Int(9));
    }

    #[test]
    fn extend_range_and_gather() {
        let mut src = ColumnVec::new(ValueType::Int);
        for i in 0..10 {
            src.push(&Value::Int(i));
        }
        let mut dst = ColumnVec::new(ValueType::Int);
        dst.extend_range(&src, 2, 5);
        assert_eq!(dst.as_int(), &[2, 3, 4]);
        dst.extend_gather(&src, &[9, 0]);
        assert_eq!(dst.as_int(), &[2, 3, 4, 9, 0]);
    }

    #[test]
    fn heap_bytes_counts_strings() {
        let mut c = ColumnVec::new(ValueType::Str);
        c.push(&"hello".into());
        assert!(c.heap_bytes() >= 5);
    }

    #[test]
    fn null_push_uses_defaults() {
        let mut c = ColumnVec::new(ValueType::Int);
        c.push(&Value::Null);
        assert_eq!(c.get(0), Value::Int(0));
    }

    #[test]
    fn coded_push_stays_coded_in_dict() {
        let d = StrDict::build(["a", "b"]);
        let mut c = ColumnVec::new_coded(d);
        c.push(&"b".into());
        c.push(&"a".into());
        assert!(c.as_codes().is_some());
        assert_eq!(c.get(0), Value::Str("b".into()));
        assert_eq!(c.str_at(1), "a");
    }

    #[test]
    fn coded_push_out_of_dict_materializes() {
        let d = StrDict::build(["a"]);
        let mut c = ColumnVec::new_coded(d);
        c.push(&"a".into());
        c.push(&"zz".into());
        assert!(c.as_codes().is_none());
        assert_eq!(c.as_str(), &["a".to_string(), "zz".to_string()]);
    }

    #[test]
    fn coded_equals_materialized() {
        let d = StrDict::build(["a", "b"]);
        let coded = ColumnVec::Coded(vec![1, 0], d);
        let plain = ColumnVec::Str(vec!["b".into(), "a".into()]);
        assert_eq!(coded, plain);
        assert_eq!(plain, coded);
        assert_ne!(coded, ColumnVec::Str(vec!["b".into(), "b".into()]));
    }

    #[test]
    fn coded_extend_range_is_code_copy() {
        let d = StrDict::build(["a", "b", "c"]);
        let src = ColumnVec::Coded(vec![2, 1, 0], d.clone());
        let mut dst = ColumnVec::new_coded(d);
        dst.extend_range(&src, 0, 2);
        assert_eq!(dst.as_codes(), Some(&[2u32, 1][..]));
        // decode into a materialized column too
        let mut plain = ColumnVec::new(ValueType::Str);
        plain.extend_range(&src, 1, 3);
        assert_eq!(plain.as_str(), &["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn coded_columns_over_two_dictionaries_stay_coded() {
        let (a, b) = (
            StrDict::build(["b", "d", "f"]),
            StrDict::build(["a", "d", "g"]),
        );
        let (left, right) = (
            ColumnVec::Coded(vec![2, 0, 1], a),
            ColumnVec::Coded(vec![0, 2, 1, 0], b),
        );
        let mut plain = ColumnVec::new(ValueType::Str);
        plain.extend_range(&left, 0, 3);
        plain.extend_range(&right, 1, 4);
        plain.extend_gather(&right, &[3, 2]);
        let mut both = left.clone();
        both.extend_range(&right, 1, 4);
        both.extend_gather(&right, &[3, 2]);
        assert!(both.as_codes().is_some());
        assert_eq!(both, plain);
        assert_eq!(plain.len(), 8);
        let dict: Vec<&str> = both.dict().unwrap().iter().collect();
        assert_eq!(dict, ["a", "b", "d", "f", "g"]);
        // a later batch over a dictionary the union already holds keeps it
        let held = both.dict().unwrap().clone();
        both.extend_gather(&right, &[0]);
        assert!(Arc::ptr_eq(both.dict().unwrap(), &held));
        assert_eq!(both.str_at(both.len() - 1), "a");
    }

    #[test]
    fn coded_slice_preserves_representation() {
        let d = StrDict::build(["x", "y"]);
        let src = ColumnVec::Coded(vec![0, 1, 0], d);
        let s = src.slice_range(1, 3);
        assert_eq!(s.as_codes(), Some(&[1u32, 0][..]));
    }

    #[test]
    fn coded_set_and_clear() {
        let d = StrDict::build(["a", "b"]);
        let mut c = ColumnVec::Coded(vec![0, 0], d);
        c.set(1, &"b".into());
        assert_eq!(c.str_at(1), "b");
        c.clear();
        assert!(c.is_empty());
        assert!(c.as_codes().is_some());
    }

    #[test]
    fn retain_range_is_slice_range_in_place() {
        let d = StrDict::build(["x", "y", "z"]);
        for src in [
            ColumnVec::Int((0..10).collect()),
            ColumnVec::Str((0..10).map(|i| format!("s{i}")).collect()),
            ColumnVec::Coded(vec![0, 1, 2, 2, 1, 0, 0, 1, 2, 2], d),
        ] {
            for (from, to) in [(0, 10), (3, 7), (0, 1), (9, 10), (4, 4)] {
                let mut c = src.clone();
                c.retain_range(from, to);
                assert_eq!(c, src.slice_range(from, to), "[{from}, {to})");
                assert_eq!(c.as_codes().is_some(), src.as_codes().is_some());
            }
        }
    }

    #[test]
    fn reset_like_keeps_a_matching_allocation() {
        let d = StrDict::build(["x", "y"]);
        let mut buf = ColumnVec::Int(vec![1, 2, 3]);
        let held = buf.as_int().as_ptr();
        buf.reset_like(&ColumnVec::Int(vec![9]));
        assert!(buf.is_empty());
        assert_eq!(buf.as_int().as_ptr(), held);
        // another representation, or another dictionary: replaced
        buf.reset_like(&ColumnVec::Coded(vec![1], d.clone()));
        assert!(buf.is_empty() && Arc::ptr_eq(buf.dict().unwrap(), &d));
        let other = StrDict::build(["x", "y"]);
        buf.reset_like(&ColumnVec::Coded(vec![0], other.clone()));
        assert!(Arc::ptr_eq(buf.dict().unwrap(), &other));
        buf.reset_like(&ColumnVec::Str(vec!["s".into()]));
        assert_eq!(buf, ColumnVec::new(ValueType::Str));
    }
}
