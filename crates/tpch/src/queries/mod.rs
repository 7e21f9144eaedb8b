//! The 22 TPC-H queries, hand-planned against the block executor.
//!
//! Each query is a function `(view, sf) -> rows` using the specification's
//! default substitution parameters (SF only matters for Q11's HAVING
//! fraction). Plans read like the SQL: scans project exactly the columns
//! the query needs — which is what gives the PDT its I/O advantage over
//! value-based deltas on every query that does not touch the sort keys.

mod q01_q05;
mod q06_q11;
mod q12_q17;
mod q18_q22;

pub use q01_q05::{q01, q02, q03, q04, q05};
pub use q06_q11::{q06, q07, q08, q09, q10, q11};
pub use q12_q17::{q12, q13, q14, q15, q16, q17};
pub use q18_q22::{q18, q19, q20, q21, q22};

use columnar::{parse_date, Tuple, Value};
use engine::{ReadView, ScanSpec};
use exec::expr::Expr;
use exec::{
    AggFunc, AggSpec, BoxOp, Filter, HashAggregate, HashJoin, JoinKind, Project, Sort, SortKey,
    TopN,
};

/// All query numbers, in order.
pub const QUERY_IDS: [usize; 22] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
];

/// Run query `n` (1-based) under `view`. `sf` parameterises Q11's fraction.
pub fn run_query(n: usize, view: &ReadView, sf: f64) -> Vec<Tuple> {
    match n {
        1 => q01(view),
        2 => q02(view),
        3 => q03(view),
        4 => q04(view),
        5 => q05(view),
        6 => q06(view),
        7 => q07(view),
        8 => q08(view),
        9 => q09(view),
        10 => q10(view),
        11 => q11(view, sf),
        12 => q12(view),
        13 => q13(view),
        14 => q14(view),
        15 => q15(view),
        16 => q16(view),
        17 => q17(view),
        18 => q18(view),
        19 => q19(view),
        20 => q20(view),
        21 => q21(view),
        22 => q22(view),
        other => panic!("TPC-H has 22 queries, got {other}"),
    }
}

// --- plan-building helpers ---------------------------------------------------

pub(crate) fn scan<'v>(v: &'v ReadView, table: &str, cols: &[&str]) -> BoxOp<'v> {
    // hand-written plans over the fixed TPC-H schema: a missing table or
    // column here is a programming error, not a runtime condition
    Box::new(
        v.scan_with(table, ScanSpec::named(cols.iter().copied()))
            .expect("TPC-H table/column"),
    )
}

pub(crate) fn filt<'v>(input: BoxOp<'v>, pred: Expr) -> BoxOp<'v> {
    Box::new(Filter::new(input, pred))
}

pub(crate) fn proj<'v>(input: BoxOp<'v>, exprs: Vec<Expr>) -> BoxOp<'v> {
    Box::new(Project::new(input, exprs))
}

pub(crate) fn agg<'v>(
    input: BoxOp<'v>,
    groups: Vec<usize>,
    aggs: Vec<(AggFunc, Expr)>,
) -> BoxOp<'v> {
    Box::new(HashAggregate::new(
        input,
        groups,
        aggs.into_iter().map(|(f, e)| AggSpec::new(f, e)).collect(),
    ))
}

pub(crate) fn join<'v>(
    probe: BoxOp<'v>,
    build: BoxOp<'v>,
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    kind: JoinKind,
) -> BoxOp<'v> {
    Box::new(HashJoin::new(probe, build, probe_keys, build_keys, kind))
}

pub(crate) fn sort<'v>(input: BoxOp<'v>, keys: Vec<SortKey>) -> BoxOp<'v> {
    Box::new(Sort::new(input, keys))
}

pub(crate) fn topn<'v>(input: BoxOp<'v>, keys: Vec<SortKey>, n: usize) -> BoxOp<'v> {
    Box::new(TopN::new(input, keys, n))
}

pub(crate) fn rows(mut op: BoxOp<'_>) -> Vec<Tuple> {
    exec::run_to_rows(op.as_mut())
}

/// Date literal (`DATE 'YYYY-MM-DD'`).
pub(crate) fn d(s: &str) -> Value {
    Value::Date(parse_date(s).expect("valid date literal"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, load_database};
    use engine::TableOptions;

    #[test]
    fn all_queries_run_on_clean_data() {
        let data = generate(0.002);
        let db = load_database(&data, TableOptions::default().with_block_rows(1024));
        let view = db.clean_view();
        let mut nonempty = 0;
        for n in QUERY_IDS {
            let out = run_query(n, &view, data.sf);
            if !out.is_empty() {
                nonempty += 1;
            }
        }
        // at tiny SF a few highly selective queries (Q2's size/type cut,
        // Q18's 300-quantity orders, Q20's forest/CANADA chain) legitimately
        // come up empty; the vast majority must return rows
        assert!(nonempty >= 18, "only {nonempty}/22 queries returned rows");
    }

    #[test]
    #[should_panic(expected = "22 queries")]
    fn unknown_query_panics() {
        let data = generate(0.001);
        let db = load_database(&data, TableOptions::default());
        let view = db.clean_view();
        run_query(23, &view, 0.001);
    }
}
