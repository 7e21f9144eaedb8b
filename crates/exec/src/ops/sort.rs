//! Sort and Top-N.

use crate::batch::Batch;
use crate::ops::Operator;
use columnar::{Tuple, ValueType};
use std::cmp::Ordering;

/// One sort criterion: column index + direction.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    /// Column index in the input batch.
    pub col: usize,
    /// Descending when true.
    pub desc: bool,
}

impl SortKey {
    /// Ascending sort on `col`.
    pub fn asc(col: usize) -> Self {
        SortKey { col, desc: false }
    }

    /// Descending sort on `col`.
    pub fn desc(col: usize) -> Self {
        SortKey { col, desc: true }
    }
}

fn cmp_rows(a: &Tuple, b: &Tuple, keys: &[SortKey]) -> Ordering {
    for k in keys {
        let ord = a[k.col].cmp(&b[k.col]);
        let ord = if k.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Full materializing sort.
pub struct Sort<'a> {
    input: Box<dyn Operator + 'a>,
    keys: Vec<SortKey>,
    types: Vec<ValueType>,
    done: bool,
}

impl<'a> Sort<'a> {
    /// Sort `input` by `keys` (stable, fully materializing).
    pub fn new(input: Box<dyn Operator + 'a>, keys: Vec<SortKey>) -> Self {
        let types = input.out_types();
        Sort {
            input,
            keys,
            types,
            done: false,
        }
    }
}

impl Operator for Sort<'_> {
    fn next_batch(&mut self) -> Option<Batch> {
        if self.done {
            return None;
        }
        self.done = true;
        let mut rows: Vec<Tuple> = Vec::new();
        while let Some(b) = self.input.next_batch() {
            rows.extend(b.rows());
        }
        if rows.is_empty() {
            return None;
        }
        rows.sort_by(|a, b| cmp_rows(a, b, &self.keys));
        Some(Batch::from_rows(&self.types, &rows))
    }

    fn out_types(&self) -> Vec<ValueType> {
        self.types.clone()
    }
}

/// Sort + keep the first `n` rows (ORDER BY ... LIMIT n).
pub struct TopN<'a> {
    inner: Sort<'a>,
    n: usize,
}

impl<'a> TopN<'a> {
    /// Keep the first `n` rows of `input` sorted by `keys`.
    pub fn new(input: Box<dyn Operator + 'a>, keys: Vec<SortKey>, n: usize) -> Self {
        TopN {
            inner: Sort::new(input, keys),
            n,
        }
    }
}

impl Operator for TopN<'_> {
    fn next_batch(&mut self) -> Option<Batch> {
        let b = self.inner.next_batch()?;
        let keep = b.num_rows().min(self.n);
        let idx: Vec<usize> = (0..keep).collect();
        Some(b.gather(&idx))
    }

    fn out_types(&self) -> Vec<ValueType> {
        self.inner.out_types()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{run_to_rows, ValuesOp};
    use columnar::Value;

    fn input() -> Box<dyn Operator> {
        let rows: Vec<Tuple> = [(3, "c"), (1, "a"), (2, "b"), (1, "z")]
            .iter()
            .map(|(i, s)| vec![Value::Int(*i), Value::Str(s.to_string())])
            .collect();
        Box::new(ValuesOp::new(&[ValueType::Int, ValueType::Str], &rows))
    }

    #[test]
    fn sort_multi_key() {
        let mut s = Sort::new(input(), vec![SortKey::asc(0), SortKey::desc(1)]);
        let got = run_to_rows(&mut s);
        let keys: Vec<(i64, String)> = got
            .iter()
            .map(|r| (r[0].as_int(), r[1].as_str().to_string()))
            .collect();
        assert_eq!(
            keys,
            vec![
                (1, "z".into()),
                (1, "a".into()),
                (2, "b".into()),
                (3, "c".into())
            ]
        );
    }

    #[test]
    fn topn_truncates() {
        let mut t = TopN::new(input(), vec![SortKey::desc(0)], 2);
        let got = run_to_rows(&mut t);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0][0], Value::Int(3));
    }
}
