//! Vectorized expression interpreter.
//!
//! Expressions evaluate over a [`Batch`] by borrowing: a column reference
//! is the batch's own column, a literal stays one scalar, and only
//! operators compute new columns. Typed kernels cover column against
//! column and column against scalar (literal on either side) for
//! int/double arithmetic and int/double/date/string comparisons; `IN` and
//! `BETWEEN` run on the same comparison kernel. String columns are read
//! through [`ColumnVec::str_at`], and a dictionary-coded column compares a
//! literal on its codes through the order-preserving dictionary. A
//! `Value`-level fallback keeps the type pairs without a typed arm total.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::batch::Batch;
use columnar::value::date_year;
use columnar::{ColumnVec, Value, ValueType};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn test(&self, ord: Ordering) -> bool {
        use Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }

    /// The operator with its operands swapped: `a op b` ⇔ `b op.flip() a`.
    fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            eq_or_ne => eq_or_ne,
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Input column by index.
    Col(usize),
    /// Constant.
    Lit(Value),
    /// Numeric addition.
    Add(Box<Expr>, Box<Expr>),
    /// Numeric subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Numeric multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division always produces a double (decimal semantics).
    Div(Box<Expr>, Box<Expr>),
    /// Comparison producing a boolean column.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// N-ary conjunction.
    And(Vec<Expr>),
    /// N-ary disjunction.
    Or(Vec<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
    /// SQL `LIKE` with `%` wildcards (and literal everything else).
    Like(Box<Expr>, String),
    /// Negated [`Expr::Like`].
    NotLike(Box<Expr>, String),
    /// SQL `IN (v1, v2, ...)` membership test.
    InList(Box<Expr>, Vec<Value>),
    /// Inclusive range test.
    Between(Box<Expr>, Value, Value),
    /// `CASE WHEN c1 THEN v1 ... ELSE e END`.
    Case(Vec<(Expr, Expr)>, Box<Expr>),
    /// `EXTRACT(YEAR FROM date)` as Int.
    Year(Box<Expr>),
    /// `SUBSTRING(s FROM start FOR len)`, 1-based.
    Substr(Box<Expr>, usize, usize),
}

/// Shorthand for [`Expr::Col`].
pub fn col(i: usize) -> Expr {
    Expr::Col(i)
}

/// Shorthand for [`Expr::Lit`].
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

// builder methods named after the SQL operators they plan, not the std ops
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Plan `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
    /// Plan `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
    /// Plan `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
    /// Plan `self / rhs` (always a double — decimal semantics).
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }
    /// Plan `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }
    /// Plan `self <> rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
    }
    /// Plan `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }
    /// Plan `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }
    /// Plan `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
    }
    /// Plan `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }
    /// Plan `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(vec![self, rhs])
    }
    /// Plan `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(vec![self, rhs])
    }
    /// Plan `NOT self`.
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// Plan `self LIKE pattern` (`%` wildcards).
    pub fn like(self, pattern: &str) -> Expr {
        Expr::Like(Box::new(self), pattern.to_string())
    }
    /// Plan `self NOT LIKE pattern`.
    pub fn not_like(self, pattern: &str) -> Expr {
        Expr::NotLike(Box::new(self), pattern.to_string())
    }
    /// Plan `self IN (vals...)`.
    pub fn in_list(self, vals: Vec<Value>) -> Expr {
        Expr::InList(Box::new(self), vals)
    }
    /// Plan `self BETWEEN lo AND hi` (inclusive).
    pub fn between(self, lo: impl Into<Value>, hi: impl Into<Value>) -> Expr {
        Expr::Between(Box::new(self), lo.into(), hi.into())
    }
    /// Plan `EXTRACT(YEAR FROM self)`.
    pub fn year(self) -> Expr {
        Expr::Year(Box::new(self))
    }
    /// Plan `SUBSTRING(self FROM start FOR len)` (1-based).
    pub fn substr(self, start: usize, len: usize) -> Expr {
        Expr::Substr(Box::new(self), start, len)
    }

    /// Call `f` on every input-column reference, in place.
    fn for_each_col(&mut self, f: &mut impl FnMut(&mut usize)) {
        match self {
            Expr::Col(c) => f(c),
            Expr::Lit(_) => {}
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Cmp(_, a, b) => {
                a.for_each_col(f);
                b.for_each_col(f);
            }
            Expr::And(es) | Expr::Or(es) => es.iter_mut().for_each(|e| e.for_each_col(f)),
            Expr::Not(e)
            | Expr::Like(e, _)
            | Expr::NotLike(e, _)
            | Expr::InList(e, _)
            | Expr::Between(e, _, _)
            | Expr::Year(e)
            | Expr::Substr(e, _, _) => e.for_each_col(f),
            Expr::Case(whens, els) => {
                for (cond, val) in whens {
                    cond.for_each_col(f);
                    val.for_each_col(f);
                }
                els.for_each_col(f);
            }
        }
    }

    /// The expression re-addressed for a narrower input: every `Col(c)`
    /// becomes `Col(map(c))`. With [`Expr::columns`] this lets a caller
    /// scan only the columns an expression reads and still evaluate it.
    pub fn remap_cols(mut self, map: impl Fn(usize) -> usize) -> Expr {
        self.for_each_col(&mut |c| *c = map(*c));
        self
    }

    /// The input columns the expression reads, ascending and distinct.
    pub fn columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        // one traversal serves reading and rewriting; the copy it needs
        // here is paid once per statement, not per row
        self.clone().for_each_col(&mut |c| cols.push(*c));
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Result type given the input column types.
    pub fn out_type(&self, input: &[ValueType]) -> ValueType {
        match self {
            Expr::Col(i) => input[*i],
            Expr::Lit(v) => v.value_type().unwrap_or(ValueType::Int),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                match (a.out_type(input), b.out_type(input)) {
                    (ValueType::Int, ValueType::Int) => ValueType::Int,
                    _ => ValueType::Double,
                }
            }
            Expr::Div(_, _) => ValueType::Double,
            Expr::Cmp(..)
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::Like(..)
            | Expr::NotLike(..)
            | Expr::InList(..)
            | Expr::Between(..) => ValueType::Bool,
            // promote like `Add`: any Double branch makes the result Double
            Expr::Case(whens, els) => {
                let types: Vec<ValueType> = whens
                    .iter()
                    .map(|(_, v)| v.out_type(input))
                    .chain([els.out_type(input)])
                    .collect();
                match types.contains(&ValueType::Double) {
                    true => ValueType::Double,
                    false => types[0],
                }
            }
            Expr::Year(_) => ValueType::Int,
            Expr::Substr(..) => ValueType::Str,
        }
    }

    /// Evaluate over a batch, producing one value per row. A column
    /// reference borrows the batch's column; anything else is computed.
    pub fn eval<'b>(&self, batch: &'b Batch) -> Cow<'b, ColumnVec> {
        self.datum(batch).into_col(batch.num_rows())
    }

    /// Evaluate as a selection predicate.
    pub fn eval_bool(&self, batch: &Batch) -> Vec<bool> {
        self.datum(batch).bools(batch.num_rows())
    }

    /// The expression's value over `batch`: a borrowed or computed column,
    /// or one scalar when it is a literal.
    fn datum<'b>(&self, batch: &'b Batch) -> Datum<'b> {
        let n = batch.num_rows();
        let computed = |c: ColumnVec| Datum::Col(Cow::Owned(c));
        let preds = |c: Vec<bool>| computed(ColumnVec::Bool(c));
        match self {
            Expr::Col(i) => Datum::Col(Cow::Borrowed(&batch.cols[*i])),
            Expr::Lit(v) => Datum::Scalar(v.clone()),
            Expr::Add(a, b) => computed(arith(a, b, batch, Some(i64::wrapping_add), |x, y| x + y)),
            Expr::Sub(a, b) => computed(arith(a, b, batch, Some(i64::wrapping_sub), |x, y| x - y)),
            Expr::Mul(a, b) => computed(arith(a, b, batch, Some(i64::wrapping_mul), |x, y| x * y)),
            Expr::Div(a, b) => computed(arith(a, b, batch, None, |x, y| x / y)),
            Expr::Cmp(op, a, b) => preds(compare(*op, &a.datum(batch), &b.datum(batch), n)),
            Expr::And(parts) | Expr::Or(parts) => {
                let all = matches!(self, Expr::And(_));
                preds(fold_bools(
                    n,
                    all,
                    parts.iter().map(|p| p.datum(batch).bools(n)),
                ))
            }
            Expr::Not(a) => preds(a.datum(batch).bools(n).into_iter().map(|b| !b).collect()),
            Expr::Like(a, pat) | Expr::NotLike(a, pat) => {
                let want = matches!(self, Expr::Like(..));
                let (v, m) = (a.datum(batch).into_col(n), LikeMatcher::new(pat));
                preds((0..n).map(|i| m.matches(v.str_at(i)) == want).collect())
            }
            // `x IN (v1, ..)` is `x = v1 OR ..`, on the comparison kernel
            Expr::InList(a, list) => {
                let a = a.datum(batch);
                let eqs = list
                    .iter()
                    .map(|v| compare(CmpOp::Eq, &a, &Datum::Scalar(v.clone()), n));
                preds(fold_bools(n, false, eqs))
            }
            Expr::Between(a, lo, hi) => {
                let a = a.datum(batch);
                let ge = compare(CmpOp::Ge, &a, &Datum::Scalar(lo.clone()), n);
                let le = compare(CmpOp::Le, &a, &Datum::Scalar(hi.clone()), n);
                preds(fold_bools(n, true, [ge, le]))
            }
            Expr::Case(whens, els) => {
                let conds: Vec<Vec<bool>> =
                    whens.iter().map(|(c, _)| c.datum(batch).bools(n)).collect();
                let vals: Vec<Datum> = whens
                    .iter()
                    .map(|(_, v)| v)
                    .chain([&**els])
                    .map(|v| v.datum(batch))
                    .collect();
                let mut out = ColumnVec::with_capacity(self.out_type(&batch.types()), n);
                for i in 0..n {
                    let branch = conds.iter().position(|c| c[i]).unwrap_or(whens.len());
                    out.push(&vals[branch].get(i));
                }
                computed(out)
            }
            Expr::Year(a) => {
                let v = a.datum(batch).into_col(n);
                computed(ColumnVec::Int(
                    v.as_date().iter().map(|&d| date_year(d)).collect(),
                ))
            }
            Expr::Substr(a, start, len) => {
                let v = a.datum(batch).into_col(n);
                computed(ColumnVec::Str(
                    (0..n)
                        .map(|i| {
                            let s = v.str_at(i);
                            let from = (start - 1).min(s.len());
                            let to = (from + len).min(s.len());
                            s[from..to].to_string()
                        })
                        .collect(),
                ))
            }
        }
    }
}

/// An evaluated operand: a column (borrowed from the batch, or computed)
/// or one scalar standing for every row.
enum Datum<'b> {
    Col(Cow<'b, ColumnVec>),
    Scalar(Value),
}

impl<'b> Datum<'b> {
    /// The operand as an `n`-row column; a scalar is broadcast.
    fn into_col(self, n: usize) -> Cow<'b, ColumnVec> {
        match self {
            Datum::Col(c) => c,
            Datum::Scalar(v) => {
                let mut c = ColumnVec::with_capacity(v.value_type().unwrap_or(ValueType::Int), n);
                (0..n).for_each(|_| c.push(&v));
                Cow::Owned(c)
            }
        }
    }

    fn bools(self, n: usize) -> Vec<bool> {
        match self.into_col(n).into_owned() {
            ColumnVec::Bool(v) => v,
            other => panic!("expected boolean column, got {:?}", other.vtype()),
        }
    }

    fn get(&self, i: usize) -> Value {
        match self {
            Datum::Col(c) => c.get(i),
            Datum::Scalar(v) => v.clone(),
        }
    }

    fn ints(&self) -> Option<Lane<'_, i64>> {
        match self {
            Datum::Col(c) => match &**c {
                ColumnVec::Int(v) => Some(Lane::Col(Cow::Borrowed(v))),
                _ => None,
            },
            Datum::Scalar(Value::Int(x)) => Some(Lane::Lit(*x)),
            _ => None,
        }
    }

    fn dates(&self) -> Option<Lane<'_, i32>> {
        match self {
            Datum::Col(c) => match &**c {
                ColumnVec::Date(v) => Some(Lane::Col(Cow::Borrowed(v))),
                _ => None,
            },
            Datum::Scalar(Value::Date(x)) => Some(Lane::Lit(*x)),
            _ => None,
        }
    }

    /// A numeric operand as doubles (ints promoted).
    fn doubles(&self) -> Option<Lane<'_, f64>> {
        match self {
            Datum::Col(c) if matches!(c.vtype(), ValueType::Int | ValueType::Double) => {
                Some(Lane::Col(doubles(c)))
            }
            Datum::Scalar(Value::Double(x)) => Some(Lane::Lit(*x)),
            Datum::Scalar(Value::Int(x)) => Some(Lane::Lit(*x as f64)),
            _ => None,
        }
    }
}

/// A numeric column as doubles: ints are promoted, and any other type
/// panics on its first value.
pub(crate) fn doubles(c: &ColumnVec) -> Cow<'_, [f64]> {
    match c {
        ColumnVec::Double(v) => Cow::Borrowed(v),
        ColumnVec::Int(v) => Cow::Owned(v.iter().map(|&x| x as f64).collect()),
        other => Cow::Owned(other.iter_values().map(|v| v.as_double()).collect()),
    }
}

/// A typed operand: a native slice, or one value for every row.
enum Lane<'a, T: Clone> {
    Col(Cow<'a, [T]>),
    Lit(T),
}

/// `f` applied row by row to two typed operands of `n` rows.
fn zip_with<T: Copy, U: Clone>(
    a: &Lane<T>,
    b: &Lane<T>,
    n: usize,
    f: impl Fn(T, T) -> U,
) -> Vec<U> {
    match (a, b) {
        (Lane::Col(x), Lane::Col(y)) => x.iter().zip(y.iter()).map(|(&x, &y)| f(x, y)).collect(),
        (Lane::Col(x), &Lane::Lit(y)) => x.iter().map(|&x| f(x, y)).collect(),
        (&Lane::Lit(x), Lane::Col(y)) => y.iter().map(|&y| f(x, y)).collect(),
        (&Lane::Lit(x), &Lane::Lit(y)) => vec![f(x, y); n],
    }
}

/// AND (`all`) or OR of boolean columns of `n` rows.
fn fold_bools(n: usize, all: bool, parts: impl IntoIterator<Item = Vec<bool>>) -> Vec<bool> {
    let mut acc = vec![all; n];
    for part in parts {
        for (a, b) in acc.iter_mut().zip(part) {
            if all {
                *a &= b;
            } else {
                *a |= b;
            }
        }
    }
    acc
}

/// Int arithmetic when both operands are ints and `int_op` is given,
/// double arithmetic otherwise.
fn arith(
    a: &Expr,
    b: &Expr,
    batch: &Batch,
    int_op: Option<fn(i64, i64) -> i64>,
    dbl_op: fn(f64, f64) -> f64,
) -> ColumnVec {
    let (a, b, n) = (a.datum(batch), b.datum(batch), batch.num_rows());
    if let (Some(f), Some(x), Some(y)) = (int_op, a.ints(), b.ints()) {
        return ColumnVec::Int(zip_with(&x, &y, n, f));
    }
    match (a.doubles(), b.doubles()) {
        (Some(x), Some(y)) => ColumnVec::Double(zip_with(&x, &y, n, dbl_op)),
        _ => panic!("expected numeric operands"),
    }
}

/// `a op b` row by row, with the literal (if any) moved to the right.
fn compare(op: CmpOp, a: &Datum, b: &Datum, n: usize) -> Vec<bool> {
    if let (Datum::Scalar(_), Datum::Col(_)) = (a, b) {
        return compare(op.flip(), b, a, n);
    }
    if let (Some(x), Some(y)) = (a.ints(), b.ints()) {
        return zip_with(&x, &y, n, |x, y| op.test(x.cmp(&y)));
    }
    if let (Some(x), Some(y)) = (a.dates(), b.dates()) {
        return zip_with(&x, &y, n, |x, y| op.test(x.cmp(&y)));
    }
    if let (Some(x), Some(y)) = (a.doubles(), b.doubles()) {
        return zip_with(&x, &y, n, |x, y| op.test(x.total_cmp(&y)));
    }
    match (a, b) {
        (Datum::Col(c), Datum::Scalar(Value::Str(s))) if c.vtype() == ValueType::Str => {
            match &**c {
                // the dictionary is order-preserving: codes compare against
                // the literal's rank, and a literal outside the dictionary
                // sorts just below the code at its rank
                ColumnVec::Coded(codes, dict) => {
                    let (rank, exact) = dict.rank_of(s);
                    let tie = [Ordering::Greater, Ordering::Equal][exact as usize];
                    codes
                        .iter()
                        .map(|c| op.test(c.cmp(&rank).then(tie)))
                        .collect()
                }
                c => (0..n).map(|i| op.test(c.str_at(i).cmp(s))).collect(),
            }
        }
        (Datum::Col(x), Datum::Col(y)) => (0..n).map(|i| op.test(x.cmp_cells(i, y, i))).collect(),
        _ => (0..n).map(|i| op.test(a.get(i).cmp(&b.get(i)))).collect(),
    }
}

/// `%`-wildcard matcher for SQL `LIKE`.
struct LikeMatcher {
    segments: Vec<String>,
    starts_any: bool,
    ends_any: bool,
}

impl LikeMatcher {
    fn new(pattern: &str) -> Self {
        LikeMatcher {
            segments: pattern
                .split('%')
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect(),
            starts_any: pattern.starts_with('%'),
            ends_any: pattern.ends_with('%'),
        }
    }

    fn matches(&self, text: &str) -> bool {
        let mut segs: &[String] = &self.segments;
        let mut rest = text;
        if !self.starts_any {
            match segs.split_first() {
                Some((first, others)) => {
                    if !rest.starts_with(first.as_str()) {
                        return false;
                    }
                    rest = &rest[first.len()..];
                    segs = others;
                }
                // pattern without any `%` and without segments: empty pattern
                None => return text.is_empty(),
            }
        }
        if !self.ends_any {
            match segs.split_last() {
                Some((last, others)) => {
                    if !rest.ends_with(last.as_str()) {
                        return false;
                    }
                    rest = &rest[..rest.len() - last.len()];
                    segs = others;
                }
                // all segments consumed by the prefix: text must be spent
                None => return rest.is_empty(),
            }
        }
        // middle segments: greedy left-to-right search
        for seg in segs {
            match rest.find(seg.as_str()) {
                Some(pos) => rest = &rest[pos + seg.len()..],
                None => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::parse_date;

    fn batch() -> Batch {
        Batch::from_rows(
            &[
                ValueType::Int,
                ValueType::Double,
                ValueType::Str,
                ValueType::Date,
            ],
            &[
                vec![
                    Value::Int(1),
                    Value::Double(0.5),
                    Value::Str("PROMO BRUSHED".into()),
                    Value::Date(parse_date("1994-03-01").unwrap()),
                ],
                vec![
                    Value::Int(2),
                    Value::Double(1.5),
                    Value::Str("STANDARD green box".into()),
                    Value::Date(parse_date("1995-07-15").unwrap()),
                ],
                vec![
                    Value::Int(3),
                    Value::Double(2.5),
                    Value::Str("PROMO green".into()),
                    Value::Date(parse_date("1994-12-31").unwrap()),
                ],
            ],
        )
    }

    #[test]
    fn columns_and_remap_follow_a_projection() {
        let e = Expr::Case(
            vec![(col(3).year().eq(lit(1994i64)), col(1).mul(lit(2.0)))],
            Box::new(col(1).add(col(0))),
        )
        .and(col(2).like("PROMO%").not());
        assert_eq!(e.columns(), vec![0, 1, 2, 3]);
        assert!(lit(1i64).columns().is_empty());
        // evaluate `c3 > 1 OR c2 LIKE ..` over a batch holding only c2, c3
        let pred = col(3).year().gt(lit(1994i64)).or(col(2).like("%box"));
        let cols = pred.columns();
        assert_eq!(cols, vec![2, 3]);
        let narrow = batch().project(&cols);
        let at = |c: usize| cols.iter().position(|&x| x == c).unwrap();
        assert_eq!(
            pred.clone().remap_cols(at).eval_bool(&narrow),
            pred.eval_bool(&batch())
        );
    }

    #[test]
    fn arithmetic_types() {
        let b = batch();
        assert_eq!(col(0).add(lit(10i64)).eval(&b).as_int(), &[11, 12, 13]);
        assert_eq!(col(0).mul(col(1)).eval(&b).as_double(), &[0.5, 3.0, 7.5]);
        assert_eq!(col(0).div(lit(2i64)).eval(&b).as_double(), &[0.5, 1.0, 1.5]);
    }

    #[test]
    fn comparisons_and_boolean_logic() {
        let b = batch();
        assert_eq!(col(0).gt(lit(1i64)).eval_bool(&b), vec![false, true, true]);
        assert_eq!(
            col(0).gt(lit(1i64)).and(col(1).lt(lit(2.0))).eval_bool(&b),
            vec![false, true, false]
        );
        assert_eq!(
            col(0).eq(lit(1i64)).or(col(0).eq(lit(3i64))).eval_bool(&b),
            vec![true, false, true]
        );
        assert_eq!(
            col(0).eq(lit(1i64)).not().eval_bool(&b),
            vec![false, true, true]
        );
        // cross numeric compare
        assert_eq!(col(0).ge(col(1)).eval_bool(&b), vec![true, true, true]);
    }

    #[test]
    fn date_comparison_and_year() {
        let b = batch();
        let cutoff = lit(Value::Date(parse_date("1995-01-01").unwrap()));
        assert_eq!(col(3).lt(cutoff).eval_bool(&b), vec![true, false, true]);
        assert_eq!(col(3).year().eval(&b).as_int(), &[1994, 1995, 1994]);
    }

    #[test]
    fn like_patterns() {
        let b = batch();
        assert_eq!(col(2).like("PROMO%").eval_bool(&b), vec![true, false, true]);
        assert_eq!(
            col(2).like("%green%").eval_bool(&b),
            vec![false, true, true]
        );
        assert_eq!(
            col(2).like("%green").eval_bool(&b),
            vec![false, false, true]
        );
        assert_eq!(
            col(2).not_like("%green%").eval_bool(&b),
            vec![true, false, false]
        );
        assert_eq!(
            col(2).like("%BRUSHED%green%").eval_bool(&b),
            vec![false, false, false]
        );
    }

    #[test]
    fn in_between_case() {
        let b = batch();
        assert_eq!(
            col(0)
                .in_list(vec![Value::Int(1), Value::Int(3)])
                .eval_bool(&b),
            vec![true, false, true]
        );
        assert_eq!(
            col(1).between(1.0, 2.0).eval_bool(&b),
            vec![false, true, false]
        );
        let c = Expr::Case(
            vec![(col(0).eq(lit(2i64)), lit(100i64))],
            Box::new(lit(0i64)),
        );
        assert_eq!(c.eval(&b).as_int(), &[0, 100, 0]);
    }

    #[test]
    fn case_promotes_across_branches() {
        let b = batch();
        // a Double branch beside an Int ELSE makes the whole CASE Double
        let c = Expr::Case(vec![(col(0).eq(lit(2i64)), lit(1.5))], Box::new(lit(0i64)));
        assert_eq!(c.out_type(&b.types()), ValueType::Double);
        assert_eq!(c.eval(&b).as_double(), &[0.0, 1.5, 0.0]);
    }

    #[test]
    fn in_list_agrees_with_equality_on_doubles() {
        let b = batch();
        let x = col(0).mul(lit(1.0)); // 1.0, 2.0, 3.0
        let want = vec![true, false, false];
        assert_eq!(x.clone().eq(lit(1i64)).eval_bool(&b), want);
        assert_eq!(x.in_list(vec![Value::Int(1)]).eval_bool(&b), want);
    }

    #[test]
    fn substr_extracts() {
        let b = batch();
        assert_eq!(
            col(2).substr(1, 5).eval(&b).as_str(),
            &[
                "PROMO".to_string(),
                "STAND".to_string(),
                "PROMO".to_string()
            ]
        );
    }

    #[test]
    fn out_types() {
        let input = [
            ValueType::Int,
            ValueType::Double,
            ValueType::Str,
            ValueType::Date,
        ];
        assert_eq!(col(0).add(lit(1i64)).out_type(&input), ValueType::Int);
        assert_eq!(col(0).add(col(1)).out_type(&input), ValueType::Double);
        assert_eq!(col(0).div(lit(2i64)).out_type(&input), ValueType::Double);
        assert_eq!(col(0).gt(lit(2i64)).out_type(&input), ValueType::Bool);
        assert_eq!(col(3).year().out_type(&input), ValueType::Int);
        assert_eq!(col(2).substr(1, 2).out_type(&input), ValueType::Str);
    }
}
