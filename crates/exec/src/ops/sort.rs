//! Sort and Top-N: the input concatenated into one batch, a permutation of
//! its row indices ordered over the typed key columns, one gather.

use crate::batch::Batch;
use crate::ops::{collect, Operator};
use columnar::ValueType;

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

/// The indices of `batch`'s rows in `keys` order — all of them, or the
/// first `limit`. The row index breaks the last tie, so equal keys keep
/// their input order (a stable sort) and the order is total, which lets
/// `select_nth_unstable_by` cut the first `limit` before sorting them.
fn order(batch: &Batch, keys: &[SortKey], limit: Option<usize>) -> Vec<usize> {
    // a column compared with itself shares its dictionary, so coded
    // strings compare by code (every dictionary is order-preserving)
    let cmp = |&i: &usize, &j: &usize| {
        keys.iter()
            .map(|k| {
                let c = &batch.cols[k.col];
                match k.desc {
                    true => c.cmp_cells(j, c, i),
                    false => c.cmp_cells(i, c, j),
                }
            })
            .find(|o| o.is_ne())
            .unwrap_or_else(|| i.cmp(&j))
    };
    let mut perm: Vec<usize> = (0..batch.num_rows()).collect();
    match limit {
        Some(0) => perm.clear(),
        Some(n) if n < perm.len() => {
            perm.select_nth_unstable_by(n - 1, cmp);
            perm.truncate(n);
        }
        _ => {}
    }
    perm.sort_unstable_by(cmp);
    perm
}

/// Full materializing sort.
pub struct Sort<'a> {
    input: Box<dyn Operator + 'a>,
    keys: Vec<SortKey>,
    types: Vec<ValueType>,
    /// Keep only the first `limit` rows (Top-N).
    limit: Option<usize>,
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
            limit: None,
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
        let all = collect(self.input.as_mut())?;
        Some(all.gather(&order(&all, &self.keys, self.limit)))
    }

    fn out_types(&self) -> Vec<ValueType> {
        self.types.clone()
    }
}

/// Sort + keep the first `n` rows (ORDER BY ... LIMIT n).
pub struct TopN<'a> {
    inner: Sort<'a>,
}

impl<'a> TopN<'a> {
    /// Keep the first `n` rows of `input` sorted by `keys`.
    pub fn new(input: Box<dyn Operator + 'a>, keys: Vec<SortKey>, n: usize) -> Self {
        let mut inner = Sort::new(input, keys);
        inner.limit = Some(n);
        TopN { inner }
    }
}

impl Operator for TopN<'_> {
    fn next_batch(&mut self) -> Option<Batch> {
        self.inner.next_batch()
    }

    fn out_types(&self) -> Vec<ValueType> {
        self.inner.out_types()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{run_to_rows, ValuesOp};
    use columnar::{Tuple, Value};

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
