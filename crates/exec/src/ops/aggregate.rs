//! Hash aggregation with grouping.
//!
//! Each input row finds its group through [`KeyIndex`]: hash, candidates,
//! key equality. A batch whose group columns are all dictionary-coded,
//! with fewer possible code tuples than rows, probes once per distinct
//! tuple instead: its rows index a slot table by their codes, and only the
//! first row of each slot is looked up.

use crate::batch::{gather, keys_eq, Batch, KeyIndex};
use crate::expr::{doubles, Expr};
use crate::ops::Operator;
use columnar::{ColumnVec, Value, ValueType};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum (Int stays Int and wraps on overflow, as Int arithmetic does;
    /// anything else accumulates as Double).
    Sum,
    /// Count of rows (the expression is not evaluated: any value counts —
    /// our columns are NOT NULL).
    Count,
    /// Arithmetic mean as Double.
    Avg,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Number of distinct expression values, under the executor's total
    /// order (every NaN of one bit pattern counts once; `-0.0` ≠ `0.0`).
    CountDistinct,
}

/// One aggregate: a function applied to an expression over the group.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated expression (evaluated per input row).
    pub expr: Expr,
}

impl AggSpec {
    /// `func` over `expr`.
    pub fn new(func: AggFunc, expr: Expr) -> Self {
        AggSpec { func, expr }
    }

    fn out_type(&self, in_types: &[ValueType]) -> ValueType {
        match self.func {
            AggFunc::Count | AggFunc::CountDistinct => ValueType::Int,
            AggFunc::Avg => ValueType::Double,
            AggFunc::Sum => match self.expr.out_type(in_types) {
                ValueType::Int => ValueType::Int,
                _ => ValueType::Double,
            },
            AggFunc::Min | AggFunc::Max => self.expr.out_type(in_types),
        }
    }
}

/// The running state of one aggregate over every group, indexed by group
/// id: sums, counts and means in typed vectors, extremes and distinct
/// sets as per-group values.
enum Acc {
    SumInt(Vec<i64>),
    SumDouble(Vec<f64>),
    Count(Vec<i64>),
    Avg(Vec<f64>, Vec<i64>),
    /// Min (`Less`) or Max (`Greater`): replace when the new value orders so.
    Extreme(Ordering, Vec<Option<Value>>),
    /// Distinct values under the total order (one NaN, `-0.0` ≠ `0.0`).
    Distinct(Vec<BTreeSet<Value>>),
}

impl Acc {
    fn new(func: AggFunc, vt: ValueType) -> Acc {
        match func {
            AggFunc::Sum => match vt {
                ValueType::Int => Acc::SumInt(Vec::new()),
                _ => Acc::SumDouble(Vec::new()),
            },
            AggFunc::Count => Acc::Count(Vec::new()),
            AggFunc::Avg => Acc::Avg(Vec::new(), Vec::new()),
            AggFunc::Min => Acc::Extreme(Ordering::Less, Vec::new()),
            AggFunc::Max => Acc::Extreme(Ordering::Greater, Vec::new()),
            AggFunc::CountDistinct => Acc::Distinct(Vec::new()),
        }
    }

    /// Room for `groups` groups.
    fn grow(&mut self, groups: usize) {
        match self {
            Acc::SumInt(s) | Acc::Count(s) => s.resize(groups, 0),
            Acc::SumDouble(s) => s.resize(groups, 0.0),
            Acc::Avg(s, n) => {
                s.resize(groups, 0.0);
                n.resize(groups, 0);
            }
            Acc::Extreme(_, m) => m.resize(groups, None),
            Acc::Distinct(d) => d.resize_with(groups, BTreeSet::new),
        }
    }

    /// Fold in one batch: row `i` adds the aggregated value `i` to group
    /// `gids[i]`. The values are evaluated by `input`, which a count never
    /// calls.
    fn update<'b>(
        &mut self,
        gids: &[u32],
        groups: usize,
        input: impl FnOnce() -> Cow<'b, ColumnVec>,
    ) {
        self.grow(groups);
        let gs = gids.iter().map(|&g| g as usize);
        match self {
            Acc::SumInt(s) => gs
                .zip(input().as_int())
                .for_each(|(g, &x)| s[g] = s[g].wrapping_add(x)),
            Acc::SumDouble(s) => gs
                .zip(doubles(&input()).iter())
                .for_each(|(g, x)| s[g] += x),
            Acc::Count(c) => gs.for_each(|g| c[g] += 1),
            Acc::Avg(s, n) => gs.zip(doubles(&input()).iter()).for_each(|(g, x)| {
                s[g] += x;
                n[g] += 1;
            }),
            Acc::Extreme(keep, m) => {
                let input = input();
                for (i, g) in gs.enumerate() {
                    let v = input.get(i);
                    if m[g].as_ref().is_none_or(|cur| v.cmp(cur) == *keep) {
                        m[g] = Some(v);
                    }
                }
            }
            Acc::Distinct(d) => {
                let input = input();
                for (i, g) in gs.enumerate() {
                    d[g].insert(input.get(i));
                }
            }
        }
    }

    fn finish(self, vt: ValueType) -> ColumnVec {
        match self {
            Acc::SumInt(s) | Acc::Count(s) => ColumnVec::Int(s),
            Acc::SumDouble(s) => ColumnVec::Double(s),
            Acc::Avg(s, n) => ColumnVec::Double(
                s.iter()
                    .zip(&n)
                    .map(|(&s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
                    .collect(),
            ),
            Acc::Extreme(_, m) => {
                let mut out = ColumnVec::with_capacity(vt, m.len());
                m.into_iter()
                    .for_each(|v| out.push_owned(v.unwrap_or(Value::Null)));
                out
            }
            Acc::Distinct(d) => ColumnVec::Int(d.iter().map(|s| s.len() as i64).collect()),
        }
    }
}

/// The groups seen so far, by id: their hashes in `index`, their key
/// values in `keys`.
#[derive(Default)]
struct Groups {
    index: KeyIndex,
    keys: Option<Vec<ColumnVec>>,
}

impl Groups {
    /// The group id of every row of the key columns `in_keys` (`n` rows),
    /// opening a group for each key not seen before.
    fn resolve(&mut self, in_keys: &[&ColumnVec], n: usize) -> Vec<u32> {
        let index = &mut self.index;
        let stored = self
            .keys
            .get_or_insert_with(|| in_keys.iter().map(|c| c.empty_like()).collect());
        let stored_keys: Vec<&ColumnVec> = stored.iter().collect();
        // a group first seen here is compared against the row that opened
        // it, and stored once every row has its id
        let (base, mut opened) = (index.len(), Vec::new());
        let mut gids = Vec::with_capacity(n);
        for (i, h) in index.hash_rows(in_keys, n).into_iter().enumerate() {
            let found = index
                .candidates(h)
                .find(|&g| match (g as usize).checked_sub(base) {
                    Some(k) => keys_eq(in_keys, i, in_keys, opened[k]),
                    None => keys_eq(in_keys, i, &stored_keys, g as usize),
                });
            gids.push(found.unwrap_or_else(|| {
                opened.push(i);
                index.insert(h)
            }));
        }
        for (s, c) in stored.iter_mut().zip(in_keys) {
            s.extend_gather(c, &opened);
        }
        gids
    }
}

/// When every key column is coded and the product of their dictionary
/// sizes is at most `n`: each row's code tuple as a dense index in order
/// of first appearance, and the first row of each tuple.
fn code_tuples(keys: &[&ColumnVec], n: usize) -> Option<(Vec<u32>, Vec<usize>)> {
    let coded: Vec<(&[u32], usize)> = keys
        .iter()
        .map(|k| Some((k.as_codes()?, k.dict()?.len())))
        .collect::<Option<_>>()?;
    let slots = coded.iter().try_fold(1usize, |p, &(_, len)| {
        p.checked_mul(len).filter(|&p| p <= n)
    })?;
    // a row's slot reads its codes as the digits of a mixed-radix number
    let (mut slot, mut radix) = (vec![0; n], 1);
    for &(codes, len) in &coded {
        slot.iter_mut()
            .zip(codes)
            .for_each(|(s, &c)| *s += c as usize * radix);
        radix *= len;
    }
    let (mut tuple_at, mut firsts) = (vec![u32::MAX; slots], Vec::new());
    let tuple_of = slot
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            if tuple_at[s] == u32::MAX {
                tuple_at[s] = firsts.len() as u32;
                firsts.push(i);
            }
            tuple_at[s]
        })
        .collect();
    Some((tuple_of, firsts))
}

/// Hash aggregation: `GROUP BY group_cols` computing `aggs`. With empty
/// `group_cols` produces exactly one (possibly zero-initialised) row —
/// scalar aggregation. Output columns: group columns, then aggregates.
pub struct HashAggregate<'a> {
    input: Box<dyn Operator + 'a>,
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    types: Vec<ValueType>,
    done: bool,
}

impl<'a> HashAggregate<'a> {
    /// Group `input` by `group_cols` and compute `aggs` per group; output
    /// columns are the group keys followed by the aggregates.
    pub fn new(input: Box<dyn Operator + 'a>, group_cols: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        let in_types = input.out_types();
        let mut types: Vec<ValueType> = group_cols.iter().map(|&c| in_types[c]).collect();
        types.extend(aggs.iter().map(|a| a.out_type(&in_types)));
        HashAggregate {
            input,
            group_cols,
            aggs,
            types,
            done: false,
        }
    }
}

impl Operator for HashAggregate<'_> {
    fn next_batch(&mut self) -> Option<Batch> {
        if self.done {
            return None;
        }
        self.done = true;
        let agg_types = &self.types[self.group_cols.len()..];
        let mut accs: Vec<Acc> = self
            .aggs
            .iter()
            .zip(agg_types)
            .map(|(a, &vt)| Acc::new(a.func, vt))
            .collect();
        let mut groups = Groups::default();
        while let Some(batch) = self.input.next_batch() {
            let n = batch.num_rows();
            let in_keys = batch.cols_at(&self.group_cols);
            let gids = match code_tuples(&in_keys, n) {
                // probe once per distinct code tuple, with its first row
                Some((tuple_of, firsts)) => {
                    let reps: Vec<ColumnVec> = in_keys.iter().map(|c| gather(c, &firsts)).collect();
                    let rep_gids = groups.resolve(&reps.iter().collect::<Vec<_>>(), firsts.len());
                    tuple_of.iter().map(|&t| rep_gids[t as usize]).collect()
                }
                None => groups.resolve(&in_keys, n),
            };
            for (acc, a) in accs.iter_mut().zip(&self.aggs) {
                acc.update(&gids, groups.index.len(), || a.expr.eval(&batch));
            }
        }
        let count = match groups.index.len() {
            // scalar aggregate over empty input: one zero row
            0 if self.group_cols.is_empty() => 1,
            0 => return None,
            g => g,
        };
        let mut cols = groups.keys.unwrap_or_default();
        for (mut acc, &vt) in accs.into_iter().zip(agg_types) {
            acc.grow(count);
            cols.push(acc.finish(vt));
        }
        Some(Batch { cols, rid_start: 0 })
    }

    fn out_types(&self) -> Vec<ValueType> {
        self.types.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::ops::{run_to_rows, ValuesOp};
    use columnar::Tuple;
    use std::collections::HashMap;

    fn input() -> Box<dyn Operator> {
        let rows: Vec<Tuple> = [
            ("a", 1i64, 2.0),
            ("a", 3, 4.0),
            ("b", 5, 6.0),
            ("b", 5, 8.0),
        ]
        .iter()
        .map(|(g, i, d)| vec![Value::Str(g.to_string()), Value::Int(*i), Value::Double(*d)])
        .collect();
        Box::new(ValuesOp::new(
            &[ValueType::Str, ValueType::Int, ValueType::Double],
            &rows,
        ))
    }

    fn by_group(rows: Vec<Tuple>) -> HashMap<String, Tuple> {
        rows.into_iter()
            .map(|r| (r[0].as_str().to_string(), r))
            .collect()
    }

    #[test]
    fn grouped_aggregates() {
        let mut agg = HashAggregate::new(
            input(),
            vec![0],
            vec![
                AggSpec::new(AggFunc::Sum, col(1)),
                AggSpec::new(AggFunc::Avg, col(2)),
                AggSpec::new(AggFunc::Count, lit(1i64)),
                AggSpec::new(AggFunc::Min, col(1)),
                AggSpec::new(AggFunc::Max, col(2)),
                AggSpec::new(AggFunc::CountDistinct, col(1)),
            ],
        );
        let rows = by_group(run_to_rows(&mut agg));
        let a = &rows["a"];
        assert_eq!(a[1], Value::Int(4));
        assert_eq!(a[2], Value::Double(3.0));
        assert_eq!(a[3], Value::Int(2));
        assert_eq!(a[4], Value::Int(1));
        assert_eq!(a[5], Value::Double(4.0));
        assert_eq!(a[6], Value::Int(2));
        let b = &rows["b"];
        assert_eq!(b[1], Value::Int(10));
        assert_eq!(b[6], Value::Int(1), "distinct of {{5,5}}");
    }

    #[test]
    fn scalar_aggregate() {
        let mut agg = HashAggregate::new(
            input(),
            vec![],
            vec![AggSpec::new(AggFunc::Sum, col(1).mul(lit(2i64)))],
        );
        let rows = run_to_rows(&mut agg);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(28));
    }

    #[test]
    fn scalar_aggregate_over_empty_input() {
        let empty = Box::new(ValuesOp::new(&[ValueType::Int], &[]));
        let mut agg = HashAggregate::new(empty, vec![], vec![AggSpec::new(AggFunc::Count, col(0))]);
        let rows = run_to_rows(&mut agg);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
    }

    #[test]
    fn int_sum_wraps_like_int_addition() {
        let rows = [i64::MAX, 1].map(|x| vec![Value::Int(x)]);
        let values = Box::new(ValuesOp::new(&[ValueType::Int], &rows));
        let mut agg = HashAggregate::new(values, vec![], vec![AggSpec::new(AggFunc::Sum, col(0))]);
        let max = Batch::from_rows(&[ValueType::Int], &rows[..1]);
        let want = col(0).add(lit(1i64)).eval(&max).as_int()[0];
        assert_eq!(run_to_rows(&mut agg), vec![vec![Value::Int(want)]]);
    }

    #[test]
    fn code_tuples_number_rows_by_first_appearance() {
        let (a, b) = (
            columnar::StrDict::build(["A", "N", "R"]),
            columnar::StrDict::build(["F", "O"]),
        );
        let x = ColumnVec::Coded(vec![2, 0, 2, 1, 0, 2], a);
        let y = ColumnVec::Coded(vec![1, 0, 1, 0, 0, 0], b);
        let (tuple_of, firsts) = code_tuples(&[&x, &y], 6).unwrap();
        assert_eq!(tuple_of, [0, 1, 0, 2, 1, 3]);
        assert_eq!(firsts, [0, 1, 3, 5]);
        // 3 × 2 possible tuples against 5 rows, or a plain column: no table
        assert!(code_tuples(&[&x, &y], 5).is_none());
        let plain = ColumnVec::Str(vec!["A".into(); 6]);
        assert!(code_tuples(&[&x, &plain], 6).is_none());
    }

    #[test]
    fn sum_of_double_expression() {
        let mut agg = HashAggregate::new(
            input(),
            vec![],
            vec![AggSpec::new(AggFunc::Sum, col(2).mul(col(1)))],
        );
        let rows = run_to_rows(&mut agg);
        assert_eq!(rows[0][0], Value::Double(2.0 + 12.0 + 30.0 + 40.0));
    }
}
