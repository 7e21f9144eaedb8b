//! Hash operators, sorts and typed expression kernels ≡ a naive
//! row-at-a-time model.
//!
//! `HashAggregate` and `HashJoin` key on hashed native columns (groups and
//! build rows by index, compared cell by cell), and `Expr` evaluates
//! through typed column-against-column and column-against-scalar kernels
//! that compare dictionary codes directly. This suite holds all three to a
//! model written here over `Value`s — a `BTreeMap` for groups, nested loops
//! for joins, a recursive interpreter for expressions — on inputs shaped
//! like scan output:
//!
//! * several batches per input, mixing `Coded` batches over two
//!   dictionaries (two partitions' columns, so hash operators meet codes of
//!   several dictionaries and store keys over their union) with `Str`
//!   batches holding strings outside them (what a scan emits once a
//!   refresh inserted such strings), and empty inputs;
//! * batches of up to 64 rows, so a coded `GROUP BY` resolves its groups
//!   through the per-batch code-tuple table;
//! * Int, Double, Date and string keys, with `-0.0`, `0.0` and NaN among
//!   the doubles.
//!
//! `Sort` and `TopN` order a permutation of typed key columns (codes
//! compared as codes, over the union two dictionaries recode into); they
//! are held to a stable `sort_by` over `Value::cmp`, with 1–3 keys of
//! mixed directions and every cut of `TopN` from none to all.
//!
//! Predicates are also held to the model as selections: `Expr::select`
//! over a random ascending row list keeps exactly the listed rows the
//! model accepts. And a scan that runs the predicate itself
//! (`ScanSpec::filter`) emits what `Filter` over the plain scan emits, row
//! for row and in order, for every update policy and partitioning, over
//! tables whose delta modifies the predicate columns, deletes and
//! re-inserts keys and spans all three PDT layers.
//!
//! **The key rule it pins.** Grouping and join keys match under the
//! executor's total order (`Value::cmp`, `ColumnVec::cmp_cells`): strings
//! by content whatever their representation, doubles by `total_cmp`, i.e.
//! by bit pattern — `-0.0` and `0.0` are two keys, and NaN is one key that
//! matches itself. `COUNT(DISTINCT)` counts distinct values by the same
//! rule. Comparisons in expressions use the same order, with Int and
//! Double promoted to Double (so `x IN (1)` ≡ `x = 1` on a Double `x`).

use columnar::{ColumnVec, Schema, StrDict, Tuple, Value, ValueType};
use engine::{Database, DbTxn, ScanSpec};
use exec::expr::{col, lit};
use exec::{
    run_to_rows, AggFunc, AggSpec, Batch, CmpOp, Expr, Filter, HashAggregate, HashJoin, JoinKind,
    Operator, Sort, SortKey, TopN,
};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use testkit::DiffHarness;

/// Input columns: 0 Int key, 1 Double key, 2 Date key, 3 string key,
/// 4 Int value, 5 Double value, 6 a second string key (coded over the
/// same dictionary as 3 in a coded batch).
const TYPES: [ValueType; 7] = [
    ValueType::Int,
    ValueType::Double,
    ValueType::Date,
    ValueType::Str,
    ValueType::Int,
    ValueType::Double,
    ValueType::Str,
];
const DOUBLES: [f64; 6] = [-0.0, 0.0, f64::NAN, 1.0, 1.5, -2.0];
const IN_DICT: [&str; 4] = ["a", "b", "bb", "c"];
const OUT_OF_DICT: [&str; 3] = ["", "ab", "zz"];
/// A second partition's dictionary: some strings shared with the first,
/// some only here.
const IN_DICT2: [&str; 4] = ["", "ab", "b", "c"];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

/// The two dictionaries a partitioned scan of the string column codes over.
fn dicts() -> [Arc<StrDict>; 2] {
    [StrDict::build(IN_DICT), StrDict::build(IN_DICT2)]
}

/// 0–3 batches of 1–12 or (one in four) up to 64 rows. A coded batch
/// draws its strings from one of the two dictionaries, as a partitioned
/// scan emits; a plain one also from outside both.
fn gen_input(rng: &mut TestRng, dicts: &[Arc<StrDict>; 2]) -> Vec<Batch> {
    (0..rng.below(4))
        .map(|_| {
            let coded = rng.below(3) > 0;
            let (dict, strs) = match rng.below(2) {
                0 => (&dicts[0], IN_DICT),
                _ => (&dicts[1], IN_DICT2),
            };
            let mut cols: Vec<ColumnVec> = TYPES.iter().map(|&t| ColumnVec::new(t)).collect();
            if coded {
                cols[3] = ColumnVec::new_coded(dict.clone());
                cols[6] = ColumnVec::new_coded(dict.clone());
            }
            let rows = match rng.below(4) {
                0 => 1 + rng.below(64),
                _ => 1 + rng.below(12),
            };
            for _ in 0..rows {
                let mut string = || match coded || rng.below(2) == 0 {
                    true => Value::from(pick(rng, &strs)),
                    false => Value::from(pick(rng, &OUT_OF_DICT)),
                };
                let (s, t) = (string(), string());
                let row = [
                    Value::Int(rng.below(4) as i64),
                    Value::Double(pick(rng, &DOUBLES)),
                    Value::Date(rng.below(3) as i32),
                    s,
                    Value::Int(rng.below(200) as i64 - 100),
                    Value::Double(match rng.below(2) {
                        0 => pick(rng, &DOUBLES),
                        _ => rng.unit_f64() * 10.0 - 5.0,
                    }),
                    t,
                ];
                cols.iter_mut().zip(&row).for_each(|(c, v)| c.push(v));
            }
            assert_eq!(cols[3].as_codes().is_some(), coded);
            assert_eq!(cols[6].as_codes().is_some(), coded);
            Batch { cols, rid_start: 0 }
        })
        .collect()
}

/// A leaf yielding prebuilt batches in order.
struct Source(VecDeque<Batch>);

impl Operator for Source {
    fn next_batch(&mut self) -> Option<Batch> {
        self.0.pop_front()
    }

    fn out_types(&self) -> Vec<ValueType> {
        TYPES.to_vec()
    }
}

fn source(batches: &[Batch]) -> Box<dyn Operator> {
    Box::new(Source(batches.iter().cloned().collect()))
}

fn rows_of(batches: &[Batch]) -> Vec<Tuple> {
    batches.iter().flat_map(Batch::rows).collect()
}

/// Row lists equal cell for cell under the total order (NaN included).
fn same_rows(a: &[Tuple], b: &[Tuple]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.cmp(v).is_eq()))
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// What a typed column stores for `Value::Null`.
fn default_of(t: ValueType) -> Value {
    let mut c = ColumnVec::new(t);
    c.push(&Value::Null);
    c.get(0)
}

fn model_aggregate(rows: &[Tuple], group_cols: &[usize], aggs: &[(AggFunc, usize)]) -> Vec<Tuple> {
    let mut groups: BTreeMap<Vec<Value>, Vec<&Tuple>> = BTreeMap::new();
    for r in rows {
        let key = group_cols.iter().map(|&c| r[c].clone()).collect();
        groups.entry(key).or_default().push(r);
    }
    if groups.is_empty() && group_cols.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }
    groups
        .into_iter()
        .map(|(mut key, members)| {
            for &(func, c) in aggs {
                let vals: Vec<&Value> = members.iter().map(|r| &r[c]).collect();
                let sum = || vals.iter().fold(0.0, |s, v| s + v.as_double());
                key.push(match func {
                    AggFunc::Sum if TYPES[c] == ValueType::Int => {
                        Value::Int(vals.iter().map(|v| v.as_int()).sum())
                    }
                    AggFunc::Sum => Value::Double(sum()),
                    AggFunc::Count => Value::Int(vals.len() as i64),
                    AggFunc::Avg if vals.is_empty() => Value::Double(0.0),
                    AggFunc::Avg => Value::Double(sum() / vals.len() as f64),
                    AggFunc::Min => vals
                        .iter()
                        .min()
                        .map_or(default_of(TYPES[c]), |v| (*v).clone()),
                    AggFunc::Max => vals
                        .iter()
                        .max()
                        .map_or(default_of(TYPES[c]), |v| (*v).clone()),
                    AggFunc::CountDistinct => {
                        // by `cmp`, not `==`: `Value`'s derived `PartialEq`
                        // holds NaN unequal to itself
                        let mut distinct = vals.clone();
                        distinct.sort();
                        distinct.dedup_by(|a, b| a.cmp(&b).is_eq());
                        Value::Int(distinct.len() as i64)
                    }
                });
            }
            key
        })
        .collect()
}

fn model_join(
    probe: &[Tuple],
    build: &[Tuple],
    keys: &[(usize, usize)],
    kind: JoinKind,
) -> Vec<Tuple> {
    let defaults: Tuple = TYPES.iter().map(|&t| default_of(t)).collect();
    let mut out = Vec::new();
    for p in probe {
        let hits: Vec<&Tuple> = build
            .iter()
            .filter(|b| keys.iter().all(|&(i, j)| p[i].cmp(&b[j]).is_eq()))
            .collect();
        let joined = |b: &Tuple, tail: &[Value]| [&p[..], b, tail].concat();
        match kind {
            JoinKind::Inner => out.extend(hits.iter().map(|b| joined(b, &[]))),
            JoinKind::LeftOuter if hits.is_empty() => out.push(joined(&defaults, &[false.into()])),
            JoinKind::LeftOuter => out.extend(hits.iter().map(|b| joined(b, &[true.into()]))),
            JoinKind::Semi if !hits.is_empty() => out.push(p.clone()),
            JoinKind::Anti if hits.is_empty() => out.push(p.clone()),
            JoinKind::Semi | JoinKind::Anti => {}
        }
    }
    out
}

/// Rows in `keys` order, ties in input order: a stable sort over
/// `Value::cmp`.
fn model_sort(mut rows: Vec<Tuple>, keys: &[SortKey]) -> Vec<Tuple> {
    rows.sort_by(|a, b| {
        keys.iter()
            .map(|k| match k.desc {
                true => b[k.col].cmp(&a[k.col]),
                false => a[k.col].cmp(&b[k.col]),
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows
}

/// SQL `LIKE` with `%` wildcards, by brute force.
fn like(s: &str, pat: &str) -> bool {
    match pat.split_once('%') {
        None => s == pat,
        Some((head, rest)) => s
            .strip_prefix(head)
            .is_some_and(|t| (0..=t.len()).any(|k| like(&t[k..], rest))),
    }
}

fn holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

/// `e` over one row, on `Value`s alone.
fn model_eval(e: &Expr, row: &[Value]) -> Value {
    let eval = |e: &Expr| model_eval(e, row);
    let arith = |a: &Expr, b: &Expr, fi: fn(i64, i64) -> i64, fd: fn(f64, f64) -> f64| match (
        eval(a),
        eval(b),
    ) {
        (Value::Int(x), Value::Int(y)) => Value::Int(fi(x, y)),
        (x, y) => Value::Double(fd(x.as_double(), y.as_double())),
    };
    let truth = |e: &Expr| eval(e).as_bool();
    match e {
        Expr::Col(c) => row[*c].clone(),
        Expr::Lit(v) => v.clone(),
        Expr::Add(a, b) => arith(a, b, i64::wrapping_add, |x, y| x + y),
        Expr::Sub(a, b) => arith(a, b, i64::wrapping_sub, |x, y| x - y),
        Expr::Mul(a, b) => arith(a, b, i64::wrapping_mul, |x, y| x * y),
        Expr::Div(a, b) => Value::Double(eval(a).as_double() / eval(b).as_double()),
        Expr::Cmp(op, a, b) => Value::Bool(holds(*op, eval(a).cmp(&eval(b)))),
        Expr::And(parts) => Value::Bool(parts.iter().all(truth)),
        Expr::Or(parts) => Value::Bool(parts.iter().any(truth)),
        Expr::Not(a) => Value::Bool(!truth(a)),
        Expr::Like(a, pat) => Value::Bool(like(eval(a).as_str(), pat)),
        Expr::NotLike(a, pat) => Value::Bool(!like(eval(a).as_str(), pat)),
        Expr::InList(a, list) => {
            let x = eval(a);
            Value::Bool(list.iter().any(|v| x.cmp(v).is_eq()))
        }
        Expr::Between(a, lo, hi) => {
            let x = eval(a);
            Value::Bool(x >= *lo && x <= *hi)
        }
        Expr::Case(whens, els) => whens
            .iter()
            .find(|(c, _)| truth(c))
            .map_or_else(|| eval(els), |(_, v)| eval(v)),
        Expr::Year(a) => Value::Int(columnar::value::date_year(eval(a).as_date()) as i64),
        Expr::Substr(a, start, len) => {
            let s = eval(a);
            let s = s.as_str();
            let from = (start - 1).min(s.len());
            Value::from(&s[from..(from + len).min(s.len())])
        }
    }
}

/// A literal of type `t` from the inputs' domains, or just outside them.
fn lit_of(rng: &mut TestRng, t: ValueType) -> Value {
    match t {
        ValueType::Int => Value::Int(rng.below(5) as i64 - 1),
        ValueType::Double => Value::Double(pick(rng, &DOUBLES)),
        ValueType::Date => Value::Date(rng.below(4) as i32 - 1),
        ValueType::Str => Value::from(pick(rng, &[IN_DICT, ["", "ab", "zz", "b0"]].concat())),
        ValueType::Bool => Value::Bool(rng.below(2) == 0),
    }
}

/// A literal for an operand of column `c`: numeric columns also meet
/// literals of the other numeric type.
fn lit_for(rng: &mut TestRng, c: usize) -> Value {
    match TYPES[c] {
        ValueType::Int | ValueType::Double => {
            let t = pick(rng, &[ValueType::Int, ValueType::Double]);
            lit_of(rng, t)
        }
        t => lit_of(rng, t),
    }
}

/// One expression per typed arm, literals on either side.
fn gen_exprs(rng: &mut TestRng) -> Vec<Expr> {
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    // column pairs a typed comparison kernel covers, cross-numeric included
    let pairs = [
        (0, 4),
        (1, 5),
        (0, 1),
        (5, 4),
        (2, 2),
        (3, 3),
        (3, 6),
        (6, 3),
    ];
    let mut out = Vec::new();
    for op in OPS {
        let (a, b) = pick(rng, &pairs);
        let cmp = |x: Expr, y: Expr| Expr::Cmp(op, Box::new(x), Box::new(y));
        out.push(cmp(col(a), col(b)));
        out.push(cmp(col(a), Expr::Lit(lit_for(rng, a))));
        out.push(cmp(Expr::Lit(lit_for(rng, b)), col(b)));
    }
    for c in 0..7 {
        out.push(col(c).between(lit_for(rng, c), lit_for(rng, c)));
        let list = (0..rng.below(4)).map(|_| lit_for(rng, c)).collect();
        out.push(col(c).in_list(list));
    }
    let numeric = [0, 1, 4, 5];
    for _ in 0..4 {
        let (a, b) = (pick(rng, &numeric), pick(rng, &numeric));
        let (la, lb) = (Expr::Lit(lit_for(rng, a)), Expr::Lit(lit_for(rng, b)));
        out.push(col(a).add(col(b)));
        out.push(col(a).sub(lb.clone()));
        out.push(la.clone().mul(col(b)));
        out.push(la.clone().add(lb.clone()));
        out.push(col(a).div(lb));
        out.push(la.div(col(b)));
    }
    let when = col(0).ge(Expr::Lit(lit_for(rng, 0)));
    let (a, b) = (pick(rng, &numeric), pick(rng, &numeric));
    out.push(Expr::Case(vec![(when.clone(), col(a))], Box::new(col(b))));
    out.push(Expr::Case(
        vec![(when.clone(), lit(1.5)), (col(3).eq(lit("b")), col(b))],
        Box::new(lit(0i64)),
    ));
    out.push(Expr::Case(vec![(when.not(), col(3))], Box::new(lit("zz"))));
    for pat in ["%", "a%", "%b", "b%b", "", "%z%"] {
        out.push(col(3).like(pat).or(col(0).eq(lit(2i64))));
        out.push(col(3).not_like(pat).and(col(1).lt(lit(1.0))));
    }
    out.push(col(3).substr(1 + rng.below(2) as usize, rng.below(3) as usize));
    out.push(col(2).year());
    out
}

/// Boolean leaves for predicate trees: `gen_exprs`' comparisons, `IN`
/// and `LIKE`s, plus `IN` lists over the string column with repeats and
/// strings outside both dictionaries, Int columns against Double
/// literals, signed zeros and NaN, and Bool-valued `CASE`s.
fn gen_predicates(rng: &mut TestRng) -> Vec<Expr> {
    let mut out: Vec<Expr> = gen_exprs(rng)
        .into_iter()
        .filter(|e| e.out_type(&TYPES) == ValueType::Bool)
        .collect();
    for _ in 0..3 {
        let list = (0..rng.below(5))
            .map(|_| lit_of(rng, ValueType::Str))
            .collect::<Vec<_>>();
        out.push(col(3).in_list([list.clone(), list].concat()));
    }
    out.push(col(3).like(pick(rng, &["%b%", "a%", "c", "%"])));
    for c in [0, 4] {
        out.push(col(c).lt(lit(pick(rng, &DOUBLES))));
        out.push(col(c).in_list(vec![
            Value::Double(1.0),
            Value::Int(2),
            Value::Double(f64::NAN),
        ]));
    }
    for x in [-0.0, 0.0, f64::NAN] {
        out.push(col(1).eq(lit(x)));
        out.push(lit(x).le(col(5)));
    }
    let (a, b) = (
        out[rng.below(out.len() as u64) as usize].clone(),
        out[0].clone(),
    );
    out.push(Expr::Case(vec![(a, b)], Box::new(lit(rng.below(2) == 0))));
    out
}

/// A predicate tree `depth` deep over `leaves`: `AND`, `OR` and `NOT`.
fn gen_tree(rng: &mut TestRng, leaves: &[Expr], depth: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return leaves[rng.below(leaves.len() as u64) as usize].clone();
    }
    let kind = rng.below(3);
    let mut parts = || -> Vec<Expr> {
        (0..1 + rng.below(3))
            .map(|_| gen_tree(rng, leaves, depth - 1))
            .collect()
    };
    match kind {
        0 => Expr::And(parts()),
        1 => Expr::Or(parts()),
        _ => gen_tree(rng, leaves, depth - 1).not(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hash_aggregate_matches_the_model(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let input = gen_input(&mut rng, &dicts());
        // the string keys most often, so the code-tuple table engages
        let group_cols: Vec<usize> = (0..rng.below(4)).map(|_| pick(&mut rng, &[0, 1, 2, 3, 3, 6, 6])).collect();
        let funcs = [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::CountDistinct,
        ];
        let mut aggs = vec![(AggFunc::Sum, 4), (AggFunc::Sum, 5), (AggFunc::Avg, 4)];
        aggs.extend(funcs.iter().map(|&f| match f {
            AggFunc::Sum | AggFunc::Avg => (f, pick(&mut rng, &[1, 5])),
            _ => (f, rng.below(7) as usize),
        }));
        let specs = aggs.iter().map(|&(f, c)| AggSpec::new(f, col(c))).collect();
        let mut op = HashAggregate::new(source(&input), group_cols.clone(), specs);
        let got = sorted(run_to_rows(&mut op));
        let want = sorted(model_aggregate(&rows_of(&input), &group_cols, &aggs));
        prop_assert!(
            same_rows(&got, &want),
            "group by {:?} computing {:?}\n got: {:?}\nwant: {:?}",
            group_cols, aggs, got, want
        );
    }

    #[test]
    fn hash_join_matches_the_model(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let dicts = dicts();
        let (probe, build) = (gen_input(&mut rng, &dicts), gen_input(&mut rng, &dicts));
        // probe and build key columns of one type, not always the same column
        let pairs = [(0, 0), (0, 4), (1, 1), (5, 1), (2, 2), (3, 3), (3, 6), (6, 6)];
        let keys: Vec<(usize, usize)> = (0..1 + rng.below(2)).map(|_| pick(&mut rng, &pairs)).collect();
        let (pk, bk): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Semi, JoinKind::Anti] {
            let mut op = HashJoin::new(source(&probe), source(&build), pk.clone(), bk.clone(), kind);
            let got = run_to_rows(&mut op);
            let want = model_join(&rows_of(&probe), &rows_of(&build), &keys, kind);
            prop_assert!(
                same_rows(&got, &want),
                "{:?} join on {:?}\n got: {:?}\nwant: {:?}",
                kind, keys, got, want
            );
        }
    }

    #[test]
    fn sort_and_topn_match_a_stable_sort(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let input = gen_input(&mut rng, &dicts());
        // 1–3 keys of few distinct values, so ties are common and the
        // later keys and the input order decide
        let keys: Vec<SortKey> = (0..1 + rng.below(3))
            .map(|_| {
                let c = pick(&mut rng, &[0, 1, 2, 3, 6, 6, 5]);
                match rng.below(2) {
                    0 => SortKey::asc(c),
                    _ => SortKey::desc(c),
                }
            })
            .collect();
        let want = model_sort(rows_of(&input), &keys);
        let mut sort = Sort::new(source(&input), keys.clone());
        if want.is_empty() {
            prop_assert!(sort.next_batch().is_none(), "empty input sorts to None");
        }
        let got = run_to_rows(&mut sort);
        prop_assert!(same_rows(&got, &want), "sort by {:?}\n got: {:?}\nwant: {:?}", keys, got, want);
        let len = want.len();
        for n in [0, 1, len.saturating_sub(1), len, len + 3] {
            let mut top = TopN::new(source(&input), keys.clone(), n);
            if len == 0 {
                prop_assert!(top.next_batch().is_none(), "empty input keeps None");
            }
            let got = run_to_rows(&mut top);
            let want = &want[..n.min(len)];
            prop_assert!(same_rows(&got, want), "top {} by {:?}\n got: {:?}\nwant: {:?}", n, keys, got, want);
        }
    }

    #[test]
    fn select_matches_the_model(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let input = gen_input(&mut rng, &dicts());
        let leaves = gen_predicates(&mut rng);
        for batch in &input {
            let n = batch.num_rows();
            let rows = batch.rows();
            for _ in 0..16 {
                let e = gen_tree(&mut rng, &leaves, 2);
                let sel: Vec<usize> = match rng.below(4) {
                    0 => Vec::new(),
                    1 => (0..n).collect(),
                    _ => (0..n).filter(|_| rng.below(2) == 0).collect(),
                };
                let want: Vec<usize> = sel
                    .iter()
                    .copied()
                    .filter(|&i| model_eval(&e, &rows[i]).as_bool())
                    .collect();
                prop_assert_eq!(e.select(batch, sel.clone()), want, "{:?} over {:?}", e, sel);
                // the mask is the selection over every row
                let mask: Vec<bool> = rows.iter().map(|r| model_eval(&e, r).as_bool()).collect();
                let got = e.eval(batch);
                prop_assert_eq!(got.as_bool(), &mask[..], "{:?}", e);
            }
        }
    }

    #[test]
    fn typed_expression_arms_match_value_evaluation(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let input = gen_input(&mut rng, &dicts());
        let exprs = gen_exprs(&mut rng);
        for batch in &input {
            for e in &exprs {
                let got = e.eval(batch);
                prop_assert_eq!(got.vtype(), e.out_type(&TYPES), "{:?}", e);
                let want: Vec<Value> = batch.rows().iter().map(|r| model_eval(e, r)).collect();
                prop_assert_eq!(got.len(), want.len());
                for (i, w) in want.iter().enumerate() {
                    prop_assert!(
                        got.get(i).cmp(w).is_eq(),
                        "{:?} on row {:?}: got {:?}, want {:?}",
                        e, batch.row(i), got.get(i), w
                    );
                }
            }
        }
    }
}

/// One batch of rows over `TYPES` whose Int (0), Date (2) and string (3,
/// 6) key columns follow `keys`; strings coded over `dict` when given.
fn keyed_batch(keys: &[usize], dict: Option<&Arc<StrDict>>) -> Vec<Batch> {
    let mut cols: Vec<ColumnVec> = TYPES.iter().map(|&t| ColumnVec::new(t)).collect();
    if let Some(d) = dict {
        cols[3] = ColumnVec::new_coded(d.clone());
        cols[6] = ColumnVec::new_coded(d.clone());
    }
    for (i, &k) in keys.iter().enumerate() {
        let row = [
            Value::Int(k as i64),
            Value::Double(DOUBLES[k % DOUBLES.len()]),
            Value::Date(k as i32),
            Value::from(IN_DICT[k % IN_DICT.len()]),
            Value::Int(i as i64),
            Value::Double(i as f64 / 2.0),
            Value::from(IN_DICT[i % IN_DICT.len()]),
        ];
        cols.iter_mut().zip(&row).for_each(|(c, v)| c.push(v));
    }
    vec![Batch { cols, rid_start: 0 }]
}

/// One deterministic join per key shape (a single Int key, a single Date
/// key, coded against plain strings, two keys), so each meets duplicate
/// build keys, probe keys without a match, an empty build side, and every
/// join kind, which the random cases reach only now and then.
#[test]
fn every_key_shape_joins_like_the_model() {
    let [dict, _] = dicts();
    let probe = keyed_batch(&[0, 1, 2, 3, 1, 0], Some(&dict));
    let builds = [
        keyed_batch(&[1, 3, 1, 3, 3, 0], None), // key 2 never matches
        Vec::new(),                             // no build rows at all
    ];
    let shapes: [(&str, &[(usize, usize)]); 4] = [
        ("Int", &[(0, 0)]),
        ("Date", &[(2, 2)]),
        ("coded against plain strings", &[(3, 3)]),
        ("two keys", &[(0, 0), (2, 2)]),
    ];
    for (shape, keys) in shapes {
        let (pk, bk): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
        for build in &builds {
            for kind in [
                JoinKind::Inner,
                JoinKind::LeftOuter,
                JoinKind::Semi,
                JoinKind::Anti,
            ] {
                let mut op =
                    HashJoin::new(source(&probe), source(build), pk.clone(), bk.clone(), kind);
                let got = run_to_rows(&mut op);
                let want = model_join(&rows_of(&probe), &rows_of(build), keys, kind);
                assert!(
                    same_rows(&got, &want),
                    "{shape} key, {kind:?}, {} build rows\n got: {got:?}\nwant: {want:?}",
                    rows_of(build).len()
                );
                if kind == JoinKind::LeftOuter {
                    // the `matched` flag, and the default row where it is false
                    let flags: Vec<bool> =
                        got.iter().map(|r| r[TYPES.len() * 2].as_bool()).collect();
                    assert!(flags.contains(&false), "{shape}: key 2 is unmatched");
                    assert_eq!(flags.contains(&true), !build.is_empty(), "{shape}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// the scan runs the filter: ScanSpec::filter(p) ≡ Filter(p) over the scan
// ---------------------------------------------------------------------------

const TABLE: &str = "t";
const BLOCK_ROWS: usize = 8;

/// A unique Int key, then the seven `TYPES` columns: the scans project
/// `1..8`, so `gen_predicates`' column numbers address them unchanged.
fn keyed_schema() -> Schema {
    let names = ["ik", "dk", "tk", "sk", "iv", "dv", "sk2"];
    let mut fields = vec![("k", ValueType::Int)];
    fields.extend(names.iter().copied().zip(TYPES));
    Schema::from_pairs(&fields)
}

/// A row with key `k` and `gen_input`-shaped values; strings come from the
/// dictionary the base load builds, and (`fresh`) from outside it. No NaN:
/// the harness holds images to its model by `==` (the predicates still
/// meet NaN literals).
fn keyed_row(rng: &mut TestRng, k: i64, fresh: bool) -> Tuple {
    let mut string = || match fresh && rng.below(3) == 0 {
        true => Value::from(pick(rng, &OUT_OF_DICT)),
        false => Value::from(pick(rng, &IN_DICT)),
    };
    let (s, t) = (string(), string());
    vec![
        Value::Int(k),
        Value::Int(rng.below(4) as i64),
        Value::Double(pick(rng, &[-0.0, 0.0, 1.0, 1.5, -2.0])),
        Value::Date(rng.below(3) as i32),
        s,
        Value::Int(rng.below(200) as i64 - 100),
        Value::Double(rng.unit_f64() * 10.0 - 5.0),
        t,
    ]
}

/// One committed statement through the harness, in every database: an
/// append of fresh keys, a delete, a modify of one predicate column over
/// a few rows, or a key deleted and re-inserted with new values.
fn commit_random(h: &mut DiffHarness, rng: &mut TestRng) {
    let visible = h.model().len() as u64;
    let some_rids = |rng: &mut TestRng, most: u64| -> Vec<u64> {
        let n = 1 + rng.below(most);
        (0..n).map(|_| rng.below(visible.max(1))).collect()
    };
    match rng.below(4) {
        0 => {
            let rows = (0..1 + rng.below(6))
                .map(|_| {
                    let k = rng.below(1200) as i64 * 10 + 5;
                    keyed_row(rng, k, true)
                })
                .collect::<Vec<_>>();
            h.append(rows);
        }
        1 if visible > 0 => h.delete_rids(&some_rids(rng, 5)),
        2 if visible > 0 => {
            let c = 1 + rng.below(7) as usize;
            let rids = some_rids(rng, 12);
            let vals: Vec<Value> = rids
                .iter()
                .map(|_| keyed_row(rng, 0, true)[c].clone())
                .collect();
            h.update_col(&rids, c, &vals);
        }
        3 if visible > 0 => {
            let rid = rng.below(visible);
            let k = h.model().rows()[rid as usize][0].clone();
            h.delete_rids(&[rid]);
            let mut row = keyed_row(rng, 0, true);
            row[0] = k;
            assert!(h.append(vec![row]));
        }
        _ => {}
    }
}

/// Stage a few statements in `txn` (its own Trans layer): modifies of
/// predicate columns, deletes and appends.
fn stage_random(txn: &mut DbTxn<'_>, rng: &mut TestRng) {
    let schema = keyed_schema();
    for _ in 0..rng.below(4) {
        let visible = txn.visible_rows(TABLE).unwrap();
        if visible == 0 {
            return;
        }
        let mut rids: Vec<u64> = (0..1 + rng.below(6)).map(|_| rng.below(visible)).collect();
        rids.sort_unstable();
        rids.dedup();
        match rng.below(3) {
            0 => {
                let c = 1 + rng.below(7) as usize;
                let mut vals = ColumnVec::new(schema.vtype(c));
                for _ in &rids {
                    vals.push(&keyed_row(rng, 0, true)[c]);
                }
                txn.update_col(TABLE, &rids, c, vals).unwrap();
            }
            1 => {
                txn.delete_rids(TABLE, &rids).unwrap();
            }
            _ => {
                // a key nothing else uses: odd multiples of 5 past the base
                let k = 20_001 + 2 * rng.below(5000) as i64;
                let row = keyed_row(rng, k, true);
                txn.append(TABLE, Batch::from_rows(&schema.types(), &[row]))
                    .unwrap();
            }
        }
    }
}

/// `open(spec)` with `filter(pred)` ≡ `Filter(pred)` over `open(spec)`,
/// with no RIDs on the filtered batches — over the whole table and (for
/// one predicate) a rid window, where the window cuts the rows first.
fn assert_filter_pushes_down<'a>(
    what: &str,
    open: impl Fn(ScanSpec) -> exec::TableScan<'a>,
    visible: u64,
    preds: &[Expr],
) -> Result<(), String> {
    let proj: Vec<usize> = (1..8).collect();
    let window = ScanSpec::cols(proj.clone()).rid_range(1, visible.saturating_sub(2));
    let specs = preds
        .iter()
        .map(|p| (ScanSpec::cols(proj.clone()), p))
        .chain(preds.first().map(|p| (window, p)));
    for (spec, p) in specs {
        let want = run_to_rows(&mut Filter::new(Box::new(open(spec.clone())), p.clone()));
        let mut scan = open(spec.filter(p.clone()));
        let mut got = Vec::new();
        while let Some(b) = scan.next_batch() {
            if b.rid_start != 0 {
                return Err(format!("{what}: a filtered batch at rid {}", b.rid_start));
            }
            got.extend(b.rows());
        }
        if !same_rows(&got, &want) {
            return Err(format!(
                "{what}: {p:?}\n got {} rows: {got:?}\nwant {} rows: {want:?}",
                got.len(),
                want.len()
            ));
        }
        let counts = scan.counts();
        if counts.rows != want.len() as u64 {
            return Err(format!(
                "{what}: counted {} rows of {}",
                counts.rows,
                want.len()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn a_filtered_scan_is_filter_over_the_scan(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let base: Vec<Tuple> = (0..40 + rng.below(40) as i64)
            .map(|i| keyed_row(&mut rng, i * 10, false))
            .collect();
        let leaves = gen_predicates(&mut rng);
        let preds: Vec<Expr> = (0..12).map(|_| gen_tree(&mut rng, &leaves, 2)).collect();
        for parts in [1, 3] {
            let mut h = DiffHarness::new(TABLE, keyed_schema(), vec![0], base.clone(), BLOCK_ROWS);
            if parts > 1 {
                h = h.with_partitions(parts);
            }
            // the Read layer, then the Write layer over it; a layer of
            // few statements leaves some blocks untouched, so blocks of
            // every shape (untouched, one layer, several) mix
            for _ in 0..rng.below(6) {
                commit_random(&mut h, &mut rng);
            }
            h.flush();
            for _ in 0..rng.below(6) {
                commit_random(&mut h, &mut rng);
            }
            for (policy, db) in h.dbs() {
                let view = db.read_view();
                let what = format!("{policy:?}, {parts} partitions, read view");
                let visible = view.visible_rows(TABLE).unwrap();
                assert_filter_pushes_down(&what, |s| view.scan_with(TABLE, s).unwrap(), visible, &preds)?;
                let mut txn = db.begin();
                stage_random(&mut txn, &mut rng);
                let what = format!("{policy:?}, {parts} partitions, with a Trans layer");
                let visible = txn.visible_rows(TABLE).unwrap();
                assert_filter_pushes_down(&what, |s| txn.scan_with(TABLE, s).unwrap(), visible, &preds)?;
                txn.abort();
            }
        }
    }
}

/// A block one layer touches is filtered by position, one that two
/// layers touch is merged first, an untouched one is read where the
/// predicate holds — and `explain_analyze` counts each. The predicate
/// `k < 0` prunes every block after its one column.
#[test]
fn filtered_blocks_are_counted_by_shape() {
    let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
    // keys 300 apart: their blocks bit-pack, so a key is read in place
    let rows: Vec<Tuple> = (0..64)
        .map(|i| vec![Value::Int(i * 300), Value::Int(i % 5)])
        .collect();
    let db = Database::new();
    db.create_table(
        columnar::TableMeta::new(TABLE, schema, vec![0]),
        engine::TableOptions::default().with_block_rows(16),
        rows,
    )
    .unwrap();
    let modify = |rid: u64| {
        let mut txn = db.begin();
        txn.update_col(TABLE, &[rid], 1, ColumnVec::Int(vec![9]))
            .unwrap();
        txn.commit().unwrap();
    };
    // block 1 in the Read layer, blocks 1 and 2 in the Write layer
    modify(20);
    db.maybe_flush(TABLE, 0).unwrap();
    modify(21);
    modify(40);
    let view = db.read_view();
    let spec = |p: Expr| ScanSpec::cols(vec![0, 1]).filter(p);
    let profile = view
        .explain_analyze(TABLE, spec(col(1).eq(lit(9i64))))
        .unwrap();
    let c = profile.plan;
    assert_eq!(
        (c.rows, c.blocks_decoded, c.blocks_fallback),
        (3, 4, 1),
        "{c}"
    );
    // blocks 0 and 3 hold no 9: pruned after `v` alone; block 2 keeps one
    // row (its `k` read at one position), block 1 is merged in full
    assert_eq!(c.blocks_pruned, 2, "{c}");
    assert_eq!(c.values_decoded, 4 * 16 + 1 + 16, "{c}");
    let none = view
        .explain_analyze(TABLE, spec(col(0).lt(lit(0i64))))
        .unwrap()
        .plan;
    assert_eq!((none.rows, none.blocks_pruned), (0, 3), "{none}");
    assert_eq!(none.values_decoded, 4 * 16 + 16, "{none}");
}
