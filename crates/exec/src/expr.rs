//! Vectorized expression interpreter.
//!
//! Expressions evaluate over a [`Batch`] and produce a full column. Typed
//! fast paths cover the combinations the TPC-H workload exercises
//! (int/double arithmetic, int/double/date/string comparisons, `LIKE` with
//! `%` wildcards, `CASE`, `IN`, `BETWEEN`, `EXTRACT(YEAR)`, `SUBSTRING`);
//! a `Value`-level fallback keeps everything total.

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
    fn test(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
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
            Expr::Case(whens, els) => whens
                .first()
                .map(|(_, v)| v.out_type(input))
                .unwrap_or_else(|| els.out_type(input)),
            Expr::Year(_) => ValueType::Int,
            Expr::Substr(..) => ValueType::Str,
        }
    }

    /// Evaluate over a batch, producing one value per row.
    pub fn eval(&self, batch: &Batch) -> ColumnVec {
        let n = batch.num_rows();
        match self {
            Expr::Col(i) => batch.cols[*i].clone(),
            Expr::Lit(v) => broadcast(v, n),
            Expr::Add(a, b) => arith(a.eval(batch), b.eval(batch), i64::wrapping_add, |x, y| {
                x + y
            }),
            Expr::Sub(a, b) => arith(a.eval(batch), b.eval(batch), i64::wrapping_sub, |x, y| {
                x - y
            }),
            Expr::Mul(a, b) => arith(a.eval(batch), b.eval(batch), i64::wrapping_mul, |x, y| {
                x * y
            }),
            Expr::Div(a, b) => {
                let (a, b) = (to_f64(a.eval(batch)), to_f64(b.eval(batch)));
                ColumnVec::Double(a.iter().zip(&b).map(|(x, y)| x / y).collect())
            }
            Expr::Cmp(op, a, b) => compare(*op, a.eval(batch), b.eval(batch)),
            Expr::And(parts) => {
                let mut acc = vec![true; n];
                for p in parts {
                    let v = bools(p.eval(batch));
                    for (a, b) in acc.iter_mut().zip(v) {
                        *a = *a && b;
                    }
                }
                ColumnVec::Bool(acc)
            }
            Expr::Or(parts) => {
                let mut acc = vec![false; n];
                for p in parts {
                    let v = bools(p.eval(batch));
                    for (a, b) in acc.iter_mut().zip(v) {
                        *a = *a || b;
                    }
                }
                ColumnVec::Bool(acc)
            }
            Expr::Not(a) => ColumnVec::Bool(bools(a.eval(batch)).into_iter().map(|b| !b).collect()),
            Expr::Like(a, pat) => {
                let v = a.eval(batch);
                let m = LikeMatcher::new(pat);
                ColumnVec::Bool(v.as_str().iter().map(|s| m.matches(s)).collect())
            }
            Expr::NotLike(a, pat) => {
                let v = a.eval(batch);
                let m = LikeMatcher::new(pat);
                ColumnVec::Bool(v.as_str().iter().map(|s| !m.matches(s)).collect())
            }
            Expr::InList(a, list) => {
                let v = a.eval(batch);
                ColumnVec::Bool((0..v.len()).map(|i| list.contains(&v.get(i))).collect())
            }
            Expr::Between(a, lo, hi) => {
                let v = a.eval(batch);
                ColumnVec::Bool(
                    (0..v.len())
                        .map(|i| {
                            let x = v.get(i);
                            x >= *lo && x <= *hi
                        })
                        .collect(),
                )
            }
            Expr::Case(whens, els) => {
                let conds: Vec<Vec<bool>> =
                    whens.iter().map(|(c, _)| bools(c.eval(batch))).collect();
                let vals: Vec<ColumnVec> = whens.iter().map(|(_, v)| v.eval(batch)).collect();
                let fallback = els.eval(batch);
                let mut out = ColumnVec::new(fallback.vtype());
                'row: for i in 0..n {
                    for (c, v) in conds.iter().zip(&vals) {
                        if c[i] {
                            out.push(&v.get(i));
                            continue 'row;
                        }
                    }
                    out.push(&fallback.get(i));
                }
                out
            }
            Expr::Year(a) => {
                let v = a.eval(batch);
                ColumnVec::Int(v.as_date().iter().map(|&d| date_year(d)).collect())
            }
            Expr::Substr(a, start, len) => {
                let v = a.eval(batch);
                ColumnVec::Str(
                    v.as_str()
                        .iter()
                        .map(|s| {
                            let from = (start - 1).min(s.len());
                            let to = (from + len).min(s.len());
                            s[from..to].to_string()
                        })
                        .collect(),
                )
            }
        }
    }

    /// Evaluate as a selection predicate.
    pub fn eval_bool(&self, batch: &Batch) -> Vec<bool> {
        bools(self.eval(batch))
    }
}

fn broadcast(v: &Value, n: usize) -> ColumnVec {
    let vt = v.value_type().unwrap_or(ValueType::Int);
    let mut c = ColumnVec::with_capacity(vt, n);
    for _ in 0..n {
        c.push(v);
    }
    c
}

fn bools(c: ColumnVec) -> Vec<bool> {
    match c {
        ColumnVec::Bool(v) => v,
        other => panic!("expected boolean column, got {:?}", other.vtype()),
    }
}

fn to_f64(c: ColumnVec) -> Vec<f64> {
    match c {
        ColumnVec::Double(v) => v,
        ColumnVec::Int(v) => v.into_iter().map(|x| x as f64).collect(),
        other => panic!("expected numeric column, got {:?}", other.vtype()),
    }
}

fn arith(
    a: ColumnVec,
    b: ColumnVec,
    f_int: fn(i64, i64) -> i64,
    f_dbl: fn(f64, f64) -> f64,
) -> ColumnVec {
    match (a, b) {
        (ColumnVec::Int(x), ColumnVec::Int(y)) => {
            ColumnVec::Int(x.iter().zip(&y).map(|(a, b)| f_int(*a, *b)).collect())
        }
        (a, b) => {
            let (x, y) = (to_f64(a), to_f64(b));
            ColumnVec::Double(x.iter().zip(&y).map(|(a, b)| f_dbl(*a, *b)).collect())
        }
    }
}

fn compare(op: CmpOp, a: ColumnVec, b: ColumnVec) -> ColumnVec {
    let out = match (&a, &b) {
        (ColumnVec::Int(x), ColumnVec::Int(y)) => {
            x.iter().zip(y).map(|(a, b)| op.test(a.cmp(b))).collect()
        }
        (ColumnVec::Double(x), ColumnVec::Double(y)) => x
            .iter()
            .zip(y)
            .map(|(a, b)| op.test(a.total_cmp(b)))
            .collect(),
        (ColumnVec::Date(x), ColumnVec::Date(y)) => {
            x.iter().zip(y).map(|(a, b)| op.test(a.cmp(b))).collect()
        }
        (ColumnVec::Str(x), ColumnVec::Str(y)) => {
            x.iter().zip(y).map(|(a, b)| op.test(a.cmp(b))).collect()
        }
        (ColumnVec::Int(x), ColumnVec::Double(y)) => x
            .iter()
            .zip(y)
            .map(|(a, b)| op.test((*a as f64).total_cmp(b)))
            .collect(),
        (ColumnVec::Double(x), ColumnVec::Int(y)) => x
            .iter()
            .zip(y)
            .map(|(a, b)| op.test(a.total_cmp(&(*b as f64))))
            .collect(),
        _ => (0..a.len())
            .map(|i| op.test(a.get(i).cmp(&b.get(i))))
            .collect(),
    };
    ColumnVec::Bool(out)
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
