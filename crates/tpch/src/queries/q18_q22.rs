//! TPC-H Q18–Q22.

use super::{agg, d, filt, join, proj, rows, scan, scan_where, sort, topn};
use columnar::{Tuple, Value};
use engine::ReadView;
use exec::expr::{col, lit};
use exec::{AggFunc::*, BoxOp, JoinKind, SortKey};

/// Q18 — Large Volume Customers (HAVING sum(l_quantity) > 300).
pub fn q18(v: &ReadView) -> Vec<Tuple> {
    let big_orders = filt(
        agg(
            scan(v, "lineitem", &["l_orderkey", "l_quantity"]),
            vec![0],
            vec![(Sum, col(1))],
        ),
        col(1).gt(lit(300.0)),
    );
    // orders ++ big: 0 okey, 1 ocust, 2 odate, 3 total, 4 bokey, 5 sumqty
    let o = join(
        scan(
            v,
            "orders",
            &["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
        ),
        big_orders,
        vec![0],
        vec![0],
        JoinKind::Inner,
    );
    // ++ customer: 6 ckey, 7 cname
    let o = join(
        o,
        scan(v, "customer", &["c_custkey", "c_name"]),
        vec![1],
        vec![0],
        JoinKind::Inner,
    );
    let out = proj(o, vec![col(7), col(6), col(0), col(2), col(3), col(5)]);
    rows(topn(out, vec![SortKey::desc(4), SortKey::asc(3)], 100))
}

/// Q19 — Discounted Revenue (three disjunctive brand/container clauses).
///
/// Note: the official query text says `l_shipmode in ('AIR', 'AIR REG')`,
/// where 'AIR REG' is not in the ship-mode domain ('REG AIR' is) — a
/// well-known spec quirk. We use ('AIR', 'REG AIR') so the predicate is
/// non-degenerate.
pub fn q19(v: &ReadView) -> Vec<Tuple> {
    let li = scan_where(
        v,
        "lineitem",
        &[
            "l_partkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipinstruct",
            "l_shipmode",
        ],
        col(5)
            .in_list(vec![Value::from("AIR"), Value::from("REG AIR")])
            .and(col(4).eq(lit("DELIVER IN PERSON"))),
    );
    // ++ part: 6 pkey, 7 brand, 8 container, 9 size
    let li = join(
        li,
        scan(
            v,
            "part",
            &["p_partkey", "p_brand", "p_container", "p_size"],
        ),
        vec![0],
        vec![0],
        JoinKind::Inner,
    );
    let containers = |syls: [&str; 4]| syls.iter().map(|s| Value::from(*s)).collect::<Vec<_>>();
    let clause = |brand: &str, conts: [&str; 4], qlo: f64, qhi: f64, smax: i64| {
        col(7)
            .eq(lit(brand))
            .and(col(8).in_list(containers(conts)))
            .and(col(1).between(qlo, qhi))
            .and(col(9).between(1i64, smax))
    };
    let li = filt(
        li,
        clause(
            "Brand#12",
            ["SM CASE", "SM BOX", "SM PACK", "SM PKG"],
            1.0,
            11.0,
            5,
        )
        .or(clause(
            "Brand#23",
            ["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
            10.0,
            20.0,
            10,
        ))
        .or(clause(
            "Brand#34",
            ["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
            20.0,
            30.0,
            15,
        )),
    );
    rows(agg(
        li,
        vec![],
        vec![(Sum, col(2).mul(lit(1.0).sub(col(3))))],
    ))
}

/// Q20 — Potential Part Promotion (nested IN subqueries, decorrelated).
pub fn q20(v: &ReadView) -> Vec<Tuple> {
    let forest_parts = proj(
        scan_where(v, "part", &["p_partkey", "p_name"], col(1).like("forest%")),
        vec![col(0)],
    );
    let li = scan_where(
        v,
        "lineitem",
        &["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
        col(3)
            .ge(lit(d("1994-01-01")))
            .and(col(3).lt(lit(d("1995-01-01")))),
    );
    let li = join(li, forest_parts, vec![0], vec![0], JoinKind::Semi);
    // half the shipped quantity per (part, supplier)
    let qty = agg(li, vec![0, 1], vec![(Sum, col(2))]); // 0 pk, 1 sk, 2 sumqty
                                                        // partsupp ++ qty: 0 pspk, 1 pssk, 2 avail, 3 pk, 4 sk, 5 sumqty
    let ps = join(
        scan(v, "partsupp", &["ps_partkey", "ps_suppkey", "ps_availqty"]),
        qty,
        vec![0, 1],
        vec![0, 1],
        JoinKind::Inner,
    );
    let ps = filt(ps, col(2).gt(lit(0.5).mul(col(5))));
    let suppkeys = agg(proj(ps, vec![col(1)]), vec![0], vec![(Count, lit(1i64))]);
    let suppkeys = proj(suppkeys, vec![col(0)]);
    let canada = scan_where(
        v,
        "nation",
        &["n_nationkey", "n_name"],
        col(1).eq(lit("CANADA")),
    );
    let supplier = join(
        scan(
            v,
            "supplier",
            &["s_suppkey", "s_name", "s_address", "s_nationkey"],
        ),
        canada,
        vec![3],
        vec![0],
        JoinKind::Semi,
    );
    let supplier = join(supplier, suppkeys, vec![0], vec![0], JoinKind::Semi);
    let out = proj(supplier, vec![col(1), col(2)]);
    rows(sort(out, vec![SortKey::asc(0)]))
}

/// Q21 — Suppliers Who Kept Orders Waiting: multi-supplier 'F' orders where
/// exactly one (SAUDI ARABIA) supplier was late.
pub fn q21(v: &ReadView) -> Vec<Tuple> {
    fn late_pairs<'v>(v: &'v ReadView) -> BoxOp<'v> {
        // distinct (orderkey, suppkey) of late lineitems
        let late = scan_where(
            v,
            "lineitem",
            &["l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"],
            col(3).gt(col(2)),
        );
        let pairs = agg(
            proj(late, vec![col(0), col(1)]),
            vec![0, 1],
            vec![(Count, lit(1i64))],
        );
        proj(pairs, vec![col(0), col(1)])
    }
    // orders served by >= 2 distinct suppliers
    let multi_supp = proj(
        filt(
            agg(
                scan(v, "lineitem", &["l_orderkey", "l_suppkey"]),
                vec![0],
                vec![(CountDistinct, col(1))],
            ),
            col(1).ge(lit(2i64)),
        ),
        vec![col(0)],
    );
    // orders with exactly one late supplier
    let single_late = proj(
        filt(
            agg(late_pairs(v), vec![0], vec![(Count, lit(1i64))]),
            col(1).eq(lit(1i64)),
        ),
        vec![col(0)],
    );
    let orders_f = proj(
        scan_where(
            v,
            "orders",
            &["o_orderkey", "o_orderstatus"],
            col(1).eq(lit("F")),
        ),
        vec![col(0)],
    );
    let blamed = join(late_pairs(v), single_late, vec![0], vec![0], JoinKind::Semi);
    let blamed = join(blamed, multi_supp, vec![0], vec![0], JoinKind::Semi);
    let blamed = join(blamed, orders_f, vec![0], vec![0], JoinKind::Semi);
    // restrict to SAUDI ARABIA suppliers and name them
    let saudi = scan_where(
        v,
        "nation",
        &["n_nationkey", "n_name"],
        col(1).eq(lit("SAUDI ARABIA")),
    );
    let supplier = join(
        scan(v, "supplier", &["s_suppkey", "s_name", "s_nationkey"]),
        saudi,
        vec![2],
        vec![0],
        JoinKind::Semi,
    );
    // blamed ++ supplier: 0 okey, 1 skey, 2 skey2, 3 sname, 4 snat
    let named = join(blamed, supplier, vec![1], vec![0], JoinKind::Inner);
    let out = agg(named, vec![3], vec![(Count, lit(1i64))]);
    rows(topn(out, vec![SortKey::desc(1), SortKey::asc(0)], 100))
}

/// Q22 — Global Sales Opportunity (phone country codes, anti join).
pub fn q22(v: &ReadView) -> Vec<Tuple> {
    let codes: Vec<Value> = ["13", "31", "23", "29", "30", "18", "17"]
        .iter()
        .map(|c| Value::from(*c))
        .collect();
    fn cust_cc<'v>(v: &'v ReadView, codes: &[Value]) -> BoxOp<'v> {
        // 0 ckey, 1 cc, 2 acctbal
        let c = proj(
            scan(v, "customer", &["c_custkey", "c_phone", "c_acctbal"]),
            vec![col(0), col(1).substr(1, 2), col(2)],
        );
        filt(c, col(1).in_list(codes.to_vec()))
    }
    // the uncorrelated AVG subquery
    let avg_rows = rows(agg(
        filt(cust_cc(v, &codes), col(2).gt(lit(0.0))),
        vec![],
        vec![(Avg, col(2))],
    ));
    let avg_bal = avg_rows[0][0].as_double();
    let rich = filt(cust_cc(v, &codes), col(2).gt(lit(avg_bal)));
    // customers with no orders at all
    let orderless = join(
        rich,
        proj(scan(v, "orders", &["o_custkey"]), vec![col(0)]),
        vec![0],
        vec![0],
        JoinKind::Anti,
    );
    let out = agg(orderless, vec![1], vec![(Count, lit(1i64)), (Sum, col(2))]);
    rows(sort(out, vec![SortKey::asc(0)]))
}
