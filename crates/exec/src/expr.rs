//! Vectorized expression interpreter.
//!
//! Expressions evaluate over a [`Batch`] by borrowing: a column reference
//! is the batch's own column, a literal stays one scalar, and only
//! operators compute new columns. Typed kernels cover column against
//! column and column against scalar (literal on either side) for
//! int/double arithmetic and int/double/date/string comparisons. String
//! columns are read through [`ColumnVec::str_at`], and a dictionary-coded
//! column compares a literal on its codes through the order-preserving
//! dictionary. A `Value`-level fallback keeps the type pairs without a
//! typed arm total.
//!
//! A predicate runs as a selection ([`Expr::select`]): it narrows an
//! ascending list of row indices one conjunct at a time, so each part is
//! asked only about the rows still in question. The comparison kernels
//! exist once, as selections; a predicate's boolean column is its
//! selection over every row, scattered.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::batch::Batch;
use columnar::value::date_year;
use columnar::{ColumnVec, StrDict, Value, ValueType};

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

    /// The rows of `sel` — ascending row indices of `batch` — for which
    /// the predicate holds, in order. A conjunction narrows the selection
    /// part by part and stops once it is empty; a disjunction asks each
    /// part only about the rows no earlier part accepted. Comparisons,
    /// `BETWEEN`, `IN` and `LIKE` read the selected rows alone, and `IN`
    /// on a coded column decides once per code; anything else (a Bool
    /// column or literal, a `CASE`) is evaluated over the batch and read
    /// at the selected rows.
    pub fn select(&self, batch: &Batch, sel: Vec<usize>) -> Vec<usize> {
        if sel.is_empty() {
            return sel;
        }
        match self {
            Expr::And(parts) => parts.iter().fold(sel, |s, p| p.select(batch, s)),
            Expr::Or(parts) => any_of(sel, parts, |p, s| p.select(batch, s)),
            Expr::Not(a) => minus(sel.clone(), &a.select(batch, sel)),
            Expr::Cmp(op, a, b) => select_cmp(*op, &a.datum(batch), &b.datum(batch), sel),
            Expr::Between(a, lo, hi) => {
                let a = a.datum(batch);
                let ge = select_cmp(CmpOp::Ge, &a, &Datum::Scalar(lo.clone()), sel);
                select_cmp(CmpOp::Le, &a, &Datum::Scalar(hi.clone()), ge)
            }
            Expr::InList(a, list) => {
                let a = a.datum(batch);
                if let Some((codes, dict)) = a.codes() {
                    // one flag per code, set for the listed strings the
                    // dictionary holds: the codes `=` would accept
                    let mut listed = vec![false; dict.len()];
                    let in_dict = list.iter().filter_map(|v| match v {
                        Value::Str(s) => dict.code_of(s),
                        _ => None,
                    });
                    in_dict.for_each(|code| listed[code as usize] = true);
                    return keep(sel, |i| listed[codes[i] as usize]);
                }
                // `x IN (v1, ..)` is `x = v1 OR ..`, on the comparison kernel
                any_of(sel, list, |v, s| {
                    select_cmp(CmpOp::Eq, &a, &Datum::Scalar(v.clone()), s)
                })
            }
            Expr::Like(a, pat) | Expr::NotLike(a, pat) => {
                let want = matches!(self, Expr::Like(..));
                let (v, m) = (a.eval(batch), LikeMatcher::new(pat));
                keep(sel, |i| m.matches(v.str_at(i)) == want)
            }
            _ => {
                let v = self.eval(batch);
                let v = v.as_bool();
                keep(sel, |i| v[i])
            }
        }
    }

    /// The expression's value over `batch`: a borrowed or computed column,
    /// or one scalar when it is a literal.
    fn datum<'b>(&self, batch: &'b Batch) -> Datum<'b> {
        let n = batch.num_rows();
        let computed = |c: ColumnVec| Datum::Col(Cow::Owned(c));
        match self {
            Expr::Col(i) => Datum::Col(Cow::Borrowed(&batch.cols[*i])),
            Expr::Lit(v) => Datum::Scalar(v.clone()),
            Expr::Add(a, b) => computed(arith(a, b, batch, Some(i64::wrapping_add), |x, y| x + y)),
            Expr::Sub(a, b) => computed(arith(a, b, batch, Some(i64::wrapping_sub), |x, y| x - y)),
            Expr::Mul(a, b) => computed(arith(a, b, batch, Some(i64::wrapping_mul), |x, y| x * y)),
            Expr::Div(a, b) => computed(arith(a, b, batch, None, |x, y| x / y)),
            // a predicate's value: its selection over every row, scattered
            Expr::Cmp(..)
            | Expr::And(_)
            | Expr::Or(_)
            | Expr::Not(_)
            | Expr::Like(..)
            | Expr::NotLike(..)
            | Expr::InList(..)
            | Expr::Between(..) => {
                let mut mask = vec![false; n];
                for i in self.select(batch, (0..n).collect()) {
                    mask[i] = true;
                }
                computed(ColumnVec::Bool(mask))
            }
            Expr::Case(whens, els) => {
                // each row takes the first branch whose condition holds,
                // each condition asked only about the rows still open
                let mut branch = vec![whens.len(); n];
                let mut open: Vec<usize> = (0..n).collect();
                for (w, (cond, _)) in whens.iter().enumerate() {
                    let taken = cond.select(batch, open.clone());
                    taken.iter().for_each(|&i| branch[i] = w);
                    open = minus(open, &taken);
                }
                let vals: Vec<Datum> = whens
                    .iter()
                    .map(|(_, v)| v)
                    .chain([&**els])
                    .map(|v| v.datum(batch))
                    .collect();
                let mut out = ColumnVec::with_capacity(self.out_type(&batch.types()), n);
                for (i, &b) in branch.iter().enumerate() {
                    out.push(&vals[b].get(i));
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
    /// The operand as an `n`-row column; a scalar is broadcast, a string
    /// as `n` codes into a one-entry dictionary.
    fn into_col(self, n: usize) -> Cow<'b, ColumnVec> {
        match self {
            Datum::Col(c) => c,
            Datum::Scalar(v) => Cow::Owned(match v {
                Value::Bool(b) => ColumnVec::Bool(vec![b; n]),
                Value::Int(x) => ColumnVec::Int(vec![x; n]),
                Value::Double(x) => ColumnVec::Double(vec![x; n]),
                Value::Date(x) => ColumnVec::Date(vec![x; n]),
                Value::Str(s) => ColumnVec::Coded(vec![0; n], StrDict::build([s])),
                // an untyped NULL stores the Int default, as `push` would
                Value::Null => ColumnVec::Int(vec![0; n]),
            }),
        }
    }

    fn get(&self, i: usize) -> Value {
        match self {
            Datum::Col(c) => c.get(i),
            Datum::Scalar(v) => v.clone(),
        }
    }

    /// A coded column's codes and dictionary.
    fn codes(&self) -> Option<(&[u32], &StrDict)> {
        match self {
            Datum::Col(c) => match &**c {
                ColumnVec::Coded(codes, dict) => Some((codes, dict)),
                _ => None,
            },
            Datum::Scalar(_) => None,
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

impl<T: Copy> Lane<'_, T> {
    fn at(&self, i: usize) -> T {
        match self {
            Lane::Col(v) => v[i],
            Lane::Lit(x) => *x,
        }
    }
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

/// The rows of `sel` where `a op b` holds, with the literal (if any)
/// moved to the right: the one comparison kernel, one arm per type pair.
fn select_cmp(op: CmpOp, a: &Datum, b: &Datum, sel: Vec<usize>) -> Vec<usize> {
    if let (Datum::Scalar(_), Datum::Col(_)) = (a, b) {
        return select_cmp(op.flip(), b, a, sel);
    }
    if let (Some(x), Some(y)) = (a.ints(), b.ints()) {
        return keep_lanes(op, sel, &x, &y, |x, y| x.cmp(&y));
    }
    if let (Some(x), Some(y)) = (a.dates(), b.dates()) {
        return keep_lanes(op, sel, &x, &y, |x, y| x.cmp(&y));
    }
    if let (Some(x), Some(y)) = (a.doubles(), b.doubles()) {
        return keep_lanes(op, sel, &x, &y, |x, y| x.total_cmp(&y));
    }
    match (a, b) {
        (Datum::Col(c), Datum::Scalar(Value::Str(s))) if c.vtype() == ValueType::Str => {
            match a.codes() {
                // the dictionary is order-preserving: codes compare against
                // the literal's rank, and a literal outside the dictionary
                // sorts just below the code at its rank
                Some((codes, dict)) => {
                    let (rank, exact) = dict.rank_of(s);
                    let tie = [Ordering::Greater, Ordering::Equal][exact as usize];
                    keep_where(op, sel, |i| codes[i].cmp(&rank).then(tie))
                }
                None => keep_where(op, sel, |i| c.str_at(i).cmp(s)),
            }
        }
        (Datum::Col(x), Datum::Col(y)) => keep_where(op, sel, |i| x.cmp_cells(i, y, i)),
        _ => keep_where(op, sel, |i| a.get(i).cmp(&b.get(i))),
    }
}

/// [`keep_where`] over two typed operands.
fn keep_lanes<T: Copy>(
    op: CmpOp,
    sel: Vec<usize>,
    a: &Lane<T>,
    b: &Lane<T>,
    cmp: impl Fn(T, T) -> Ordering,
) -> Vec<usize> {
    match (a, b) {
        (Lane::Col(x), Lane::Col(y)) => keep_where(op, sel, |i| cmp(x[i], y[i])),
        (Lane::Col(x), &Lane::Lit(y)) => keep_where(op, sel, |i| cmp(x[i], y)),
        _ => keep_where(op, sel, |i| cmp(a.at(i), b.at(i))),
    }
}

/// The rows of `sel` whose ordering `ord(i)` satisfies `op`; `op` is
/// matched once per call, outside the row loop.
fn keep_where(op: CmpOp, sel: Vec<usize>, ord: impl Fn(usize) -> Ordering) -> Vec<usize> {
    match op {
        CmpOp::Eq => keep(sel, |i| ord(i).is_eq()),
        CmpOp::Ne => keep(sel, |i| ord(i).is_ne()),
        CmpOp::Lt => keep(sel, |i| ord(i).is_lt()),
        CmpOp::Le => keep(sel, |i| ord(i).is_le()),
        CmpOp::Gt => keep(sel, |i| ord(i).is_gt()),
        CmpOp::Ge => keep(sel, |i| ord(i).is_ge()),
    }
}

/// The rows of `sel` for which `f` holds, narrowed in place. Every row
/// is written and the write position advances past the kept ones only,
/// so the loop has no branch on the data.
fn keep(mut sel: Vec<usize>, f: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut kept = 0;
    for r in 0..sel.len() {
        let i = sel[r];
        sel[kept] = i;
        kept += f(i) as usize;
    }
    sel.truncate(kept);
    sel
}

/// `sel` without the rows of `drop`, an ascending subset of it.
fn minus(mut sel: Vec<usize>, drop: &[usize]) -> Vec<usize> {
    let mut drop = drop.iter().peekable();
    sel.retain(|i| drop.next_if_eq(&i).is_none());
    sel
}

/// The rows of `sel` that any of `parts` accepts, each part asked by
/// `select` only about the rows no earlier part accepted.
fn any_of<P>(
    sel: Vec<usize>,
    parts: &[P],
    select: impl Fn(&P, Vec<usize>) -> Vec<usize>,
) -> Vec<usize> {
    let mut open = sel.clone();
    for p in parts {
        if open.is_empty() {
            break;
        }
        let hit = select(p, open.clone());
        open = minus(open, &hit);
    }
    minus(sel, &open)
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
            pred.clone().remap_cols(at).eval(&narrow).as_bool(),
            pred.eval(&batch()).as_bool()
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
        assert_eq!(
            col(0).gt(lit(1i64)).eval(&b).as_bool(),
            vec![false, true, true]
        );
        assert_eq!(
            col(0)
                .gt(lit(1i64))
                .and(col(1).lt(lit(2.0)))
                .eval(&b)
                .as_bool(),
            vec![false, true, false]
        );
        assert_eq!(
            col(0)
                .eq(lit(1i64))
                .or(col(0).eq(lit(3i64)))
                .eval(&b)
                .as_bool(),
            vec![true, false, true]
        );
        assert_eq!(
            col(0).eq(lit(1i64)).not().eval(&b).as_bool(),
            vec![false, true, true]
        );
        // cross numeric compare
        assert_eq!(col(0).ge(col(1)).eval(&b).as_bool(), vec![true, true, true]);
    }

    #[test]
    fn date_comparison_and_year() {
        let b = batch();
        let cutoff = lit(Value::Date(parse_date("1995-01-01").unwrap()));
        assert_eq!(
            col(3).lt(cutoff).eval(&b).as_bool(),
            vec![true, false, true]
        );
        assert_eq!(col(3).year().eval(&b).as_int(), &[1994, 1995, 1994]);
    }

    #[test]
    fn like_patterns() {
        let b = batch();
        assert_eq!(
            col(2).like("PROMO%").eval(&b).as_bool(),
            vec![true, false, true]
        );
        assert_eq!(
            col(2).like("%green%").eval(&b).as_bool(),
            vec![false, true, true]
        );
        assert_eq!(
            col(2).like("%green").eval(&b).as_bool(),
            vec![false, false, true]
        );
        assert_eq!(
            col(2).not_like("%green%").eval(&b).as_bool(),
            vec![true, false, false]
        );
        assert_eq!(
            col(2).like("%BRUSHED%green%").eval(&b).as_bool(),
            vec![false, false, false]
        );
    }

    #[test]
    fn in_between_case() {
        let b = batch();
        assert_eq!(
            col(0)
                .in_list(vec![Value::Int(1), Value::Int(3)])
                .eval(&b)
                .as_bool(),
            vec![true, false, true]
        );
        assert_eq!(
            col(1).between(1.0, 2.0).eval(&b).as_bool(),
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
        assert_eq!(x.clone().eq(lit(1i64)).eval(&b).as_bool(), want);
        assert_eq!(x.in_list(vec![Value::Int(1)]).eval(&b).as_bool(), want);
    }

    #[test]
    fn select_narrows_the_given_rows() {
        let b = batch();
        let all = || vec![0, 1, 2];
        // the literal on either side, a conjunction, a disjunction, NOT
        assert_eq!(lit(1i64).lt(col(0)).select(&b, all()), [1, 2]);
        let both = col(0).gt(lit(1i64)).and(col(1).lt(lit(2.0)));
        assert_eq!(both.select(&b, all()), [1]);
        assert_eq!(both.select(&b, vec![0, 2]), Vec::<usize>::new());
        let either = col(0).eq(lit(3i64)).or(col(2).like("PROMO%"));
        assert_eq!(either.select(&b, all()), [0, 2]);
        assert_eq!(either.select(&b, vec![1, 2]), [2]);
        assert_eq!(either.not().select(&b, all()), [1]);
        // a bare Bool operand and a Bool CASE read their mask
        assert_eq!(lit(true).select(&b, vec![1]), [1]);
        let case = Expr::Case(
            vec![(col(0).eq(lit(2i64)), lit(false))],
            Box::new(lit(true)),
        );
        assert_eq!(case.select(&b, all()), [0, 2]);
    }

    #[test]
    fn coded_in_list_reads_codes() {
        let dict = columnar::StrDict::build(["AIR", "MAIL", "SHIP"]);
        let b = Batch {
            cols: vec![ColumnVec::Coded(vec![1, 0, 2, 1], dict)],
            rid_start: 0,
        };
        let listed = vec!["MAIL".into(), "TRUCK".into(), Value::Int(1), "MAIL".into()];
        assert_eq!(col(0).in_list(listed).select(&b, vec![0, 1, 2, 3]), [0, 3]);
        assert_eq!(
            col(0).in_list(vec![]).select(&b, vec![0, 1]),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn a_string_literal_broadcasts_coded() {
        let b = batch();
        let v = lit("x").eval(&b);
        assert_eq!(v.as_codes(), Some(&[0u32, 0, 0][..]));
        assert_eq!(v.str_at(2), "x");
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
