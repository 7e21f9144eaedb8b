//! TPC-H Q12–Q17.

use super::{agg, d, filt, join, proj, rows, scan, scan_where, sort};
use columnar::{Tuple, Value};
use engine::ReadView;
use exec::expr::{col, lit, Expr};
use exec::ops::ValuesOp;
use exec::{AggFunc::*, BoxOp, JoinKind, SortKey};

/// Q12 — Shipping Modes and Order Priority.
pub fn q12(v: &ReadView) -> Vec<Tuple> {
    let li = scan_where(
        v,
        "lineitem",
        &[
            "l_orderkey",
            "l_shipmode",
            "l_commitdate",
            "l_receiptdate",
            "l_shipdate",
        ],
        col(1)
            .in_list(vec![Value::from("MAIL"), Value::from("SHIP")])
            .and(col(2).lt(col(3)))
            .and(col(4).lt(col(2)))
            .and(col(3).ge(lit(d("1994-01-01"))))
            .and(col(3).lt(lit(d("1995-01-01")))),
    );
    // ++ orders: 5 okey, 6 priority
    let li = join(
        li,
        scan(v, "orders", &["o_orderkey", "o_orderpriority"]),
        vec![0],
        vec![0],
        JoinKind::Inner,
    );
    let high = col(6).in_list(vec![Value::from("1-URGENT"), Value::from("2-HIGH")]);
    let out = agg(
        li,
        vec![1],
        vec![
            (
                Sum,
                Expr::Case(vec![(high.clone(), lit(1i64))], Box::new(lit(0i64))),
            ),
            (
                Sum,
                Expr::Case(vec![(high, lit(0i64))], Box::new(lit(1i64))),
            ),
        ],
    );
    rows(sort(out, vec![SortKey::asc(0)]))
}

/// Q13 — Customer Distribution (left outer join + double aggregation).
pub fn q13(v: &ReadView) -> Vec<Tuple> {
    let orders = proj(
        scan_where(
            v,
            "orders",
            &["o_custkey", "o_comment"],
            col(1).not_like("%special%requests%"),
        ),
        vec![col(0)],
    );
    // customer ++ orders ++ matched: 0 ckey, 1 o_custkey, 2 matched
    let outer = join(
        scan(v, "customer", &["c_custkey"]),
        orders,
        vec![0],
        vec![0],
        JoinKind::LeftOuter,
    );
    // orders per customer
    let per_cust = agg(
        outer,
        vec![0],
        vec![(
            Sum,
            Expr::Case(vec![(col(2), lit(1i64))], Box::new(lit(0i64))),
        )],
    );
    // distribution of counts
    let dist = agg(per_cust, vec![1], vec![(Count, lit(1i64))]);
    rows(sort(dist, vec![SortKey::desc(1), SortKey::desc(0)]))
}

/// Q14 — Promotion Effect.
pub fn q14(v: &ReadView) -> Vec<Tuple> {
    let li = scan_where(
        v,
        "lineitem",
        &["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        col(3)
            .ge(lit(d("1995-09-01")))
            .and(col(3).lt(lit(d("1995-10-01")))),
    );
    // ++ part: 4 pkey, 5 ptype
    let li = join(
        li,
        scan(v, "part", &["p_partkey", "p_type"]),
        vec![0],
        vec![0],
        JoinKind::Inner,
    );
    let revenue = || col(1).mul(lit(1.0).sub(col(2)));
    let sums = agg(
        li,
        vec![],
        vec![
            (
                Sum,
                Expr::Case(vec![(col(5).like("PROMO%"), revenue())], Box::new(lit(0.0))),
            ),
            (Sum, revenue()),
        ],
    );
    rows(proj(sums, vec![lit(100.0).mul(col(0)).div(col(1))]))
}

/// Q15 — Top Supplier (the revenue view + max).
pub fn q15(v: &ReadView) -> Vec<Tuple> {
    let revenue = agg(
        scan_where(
            v,
            "lineitem",
            &["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
            col(3)
                .ge(lit(d("1996-01-01")))
                .and(col(3).lt(lit(d("1996-04-01")))),
        ),
        vec![0],
        vec![(Sum, col(1).mul(lit(1.0).sub(col(2))))],
    );
    let rev_rows = rows(revenue);
    let max_rev = rev_rows
        .iter()
        .map(|r| r[1].as_double())
        .fold(f64::MIN, f64::max);
    let winners: Vec<Tuple> = rev_rows
        .into_iter()
        .filter(|r| r[1].as_double() == max_rev)
        .collect();
    let winners_op: BoxOp = Box::new(ValuesOp::new(
        &[columnar::ValueType::Int, columnar::ValueType::Double],
        &winners,
    ));
    // supplier ++ (skey, rev): 0 skey, 1 name, 2 addr, 3 phone, 4 wkey, 5 rev
    let out = join(
        scan(
            v,
            "supplier",
            &["s_suppkey", "s_name", "s_address", "s_phone"],
        ),
        winners_op,
        vec![0],
        vec![0],
        JoinKind::Inner,
    );
    let out = proj(out, vec![col(0), col(1), col(2), col(3), col(5)]);
    rows(sort(out, vec![SortKey::asc(0)]))
}

/// Q16 — Parts/Supplier Relationship (does not touch orders/lineitem).
pub fn q16(v: &ReadView) -> Vec<Tuple> {
    let sizes = [49i64, 14, 23, 45, 19, 3, 36, 9]
        .iter()
        .map(|&s| Value::Int(s))
        .collect();
    let part = scan_where(
        v,
        "part",
        &["p_partkey", "p_brand", "p_type", "p_size"],
        col(1)
            .ne(lit("Brand#45"))
            .and(col(2).not_like("MEDIUM POLISHED%"))
            .and(col(3).in_list(sizes)),
    );
    // partsupp ++ part: 0 pspart, 1 pssupp, 2 pkey, 3 brand, 4 type, 5 size
    let ps = join(
        scan(v, "partsupp", &["ps_partkey", "ps_suppkey"]),
        part,
        vec![0],
        vec![0],
        JoinKind::Inner,
    );
    let complainers = proj(
        scan_where(
            v,
            "supplier",
            &["s_suppkey", "s_comment"],
            col(1).like("%Customer%Complaints%"),
        ),
        vec![col(0)],
    );
    let ps = join(ps, complainers, vec![1], vec![0], JoinKind::Anti);
    let out = agg(ps, vec![3, 4, 5], vec![(CountDistinct, col(1))]);
    rows(sort(
        out,
        vec![
            SortKey::desc(3),
            SortKey::asc(0),
            SortKey::asc(1),
            SortKey::asc(2),
        ],
    ))
}

/// Q17 — Small-Quantity-Order Revenue (correlated AVG subquery).
pub fn q17(v: &ReadView) -> Vec<Tuple> {
    fn li_of_part<'v>(v: &'v ReadView) -> BoxOp<'v> {
        let part = scan_where(
            v,
            "part",
            &["p_partkey", "p_brand", "p_container"],
            col(1).eq(lit("Brand#23")).and(col(2).eq(lit("MED BOX"))),
        );
        join(
            scan(
                v,
                "lineitem",
                &["l_partkey", "l_quantity", "l_extendedprice"],
            ),
            part,
            vec![0],
            vec![0],
            JoinKind::Semi,
        )
    }
    // per-part average quantity (the correlated subquery, decorrelated)
    let avgs = agg(li_of_part(v), vec![0], vec![(Avg, col(1))]);
    // 0 pkey, 1 qty, 2 ext, 3 pkey2, 4 avgqty
    let joined = join(li_of_part(v), avgs, vec![0], vec![0], JoinKind::Inner);
    let small = filt(joined, col(1).lt(lit(0.2).mul(col(4))));
    let total = agg(small, vec![], vec![(Sum, col(2))]);
    rows(proj(total, vec![col(0).div(lit(7.0))]))
}
