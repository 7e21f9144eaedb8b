//! TPC-H Q1–Q5.

use super::{agg, d, filt, join, proj, rows, scan, scan_where, sort, topn};
use columnar::Tuple;
use engine::ReadView;
use exec::expr::{col, lit, Expr};
use exec::{AggFunc::*, BoxOp, JoinKind, SortKey};

/// Q1 — Pricing Summary Report. Sequential scan of most `lineitem` value
/// columns (but *not* its sort keys other than none): the paper's Plot 4
/// shows VDT merging costing up to half of this query's CPU time.
pub fn q01(v: &ReadView) -> Vec<Tuple> {
    // 0 rf, 1 ls, 2 qty, 3 ext, 4 disc, 5 tax, 6 ship
    let li = scan_where(
        v,
        "lineitem",
        &[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
        col(6).le(lit(d("1998-09-02"))),
    );
    // 6 disc_price = ext * (1 - disc), computed once for both sums
    let li = proj(
        li,
        vec![
            col(0),
            col(1),
            col(2),
            col(3),
            col(4),
            col(5),
            col(3).mul(lit(1.0).sub(col(4))),
        ],
    );
    let out = agg(
        li,
        vec![0, 1],
        vec![
            (Sum, col(2)),
            (Sum, col(3)),
            (Sum, col(6)),
            (Sum, col(6).mul(lit(1.0).add(col(5)))),
            (Avg, col(2)),
            (Avg, col(3)),
            (Avg, col(4)),
            (Count, lit(1i64)),
        ],
    );
    rows(sort(out, vec![SortKey::asc(0), SortKey::asc(1)]))
}

/// Q2 — Minimum Cost Supplier (does not touch orders/lineitem).
pub fn q02(v: &ReadView) -> Vec<Tuple> {
    fn joined<'v>(v: &'v ReadView) -> BoxOp<'v> {
        let region = scan_where(
            v,
            "region",
            &["r_regionkey", "r_name"],
            col(1).eq(lit("EUROPE")),
        );
        // nation ++ region: 0 nkey, 1 nname, 2 nregion, 3 rkey, 4 rname
        let nation = join(
            scan(v, "nation", &["n_nationkey", "n_name", "n_regionkey"]),
            region,
            vec![2],
            vec![0],
            JoinKind::Inner,
        );
        // supplier ++ nation: 0 skey, 1 sname, 2 saddr, 3 snat, 4 sphone,
        // 5 sacct, 6 scomm, 7 nkey, 8 nname, ...
        let supplier = join(
            scan(
                v,
                "supplier",
                &[
                    "s_suppkey",
                    "s_name",
                    "s_address",
                    "s_nationkey",
                    "s_phone",
                    "s_acctbal",
                    "s_comment",
                ],
            ),
            nation,
            vec![3],
            vec![0],
            JoinKind::Inner,
        );
        // partsupp ++ supplier': 0 ps_partkey, 1 ps_suppkey, 2 cost, 3 skey...
        let ps = join(
            scan(
                v,
                "partsupp",
                &["ps_partkey", "ps_suppkey", "ps_supplycost"],
            ),
            supplier,
            vec![1],
            vec![0],
            JoinKind::Inner,
        );
        // ++ part: 15 pkey, 16 mfgr, 17 size, 18 type
        let part = scan_where(
            v,
            "part",
            &["p_partkey", "p_mfgr", "p_size", "p_type"],
            col(2).eq(lit(15i64)).and(col(3).like("%BRASS")),
        );
        join(ps, part, vec![0], vec![0], JoinKind::Inner)
    }
    // minimum cost per part over the same join
    let mins = agg(joined(v), vec![0], vec![(Min, col(2))]); // 0 partkey, 1 min
    let main = join(joined(v), mins, vec![0, 2], vec![0, 1], JoinKind::Inner);
    // s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
    let out = proj(
        main,
        vec![
            col(8),
            col(4),
            col(11),
            col(0),
            col(16),
            col(5),
            col(7),
            col(9),
        ],
    );
    rows(topn(
        out,
        vec![
            SortKey::desc(0),
            SortKey::asc(2),
            SortKey::asc(1),
            SortKey::asc(3),
        ],
        100,
    ))
}

/// Q3 — Shipping Priority.
pub fn q03(v: &ReadView) -> Vec<Tuple> {
    let cust = scan_where(
        v,
        "customer",
        &["c_custkey", "c_mktsegment"],
        col(1).eq(lit("BUILDING")),
    );
    let orders = scan_where(
        v,
        "orders",
        &["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
        col(2).lt(lit(d("1995-03-15"))),
    );
    // orders of BUILDING customers: semi join keeps orders' columns
    let orders = join(orders, cust, vec![1], vec![0], JoinKind::Semi);
    let li = scan_where(
        v,
        "lineitem",
        &["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        col(3).gt(lit(d("1995-03-15"))),
    );
    // li ++ orders: 0 lokey, 1 ext, 2 disc, 3 lship, 4 okey, 5 ocust, 6 odate, 7 oship
    let joined = join(li, orders, vec![0], vec![0], JoinKind::Inner);
    let grouped = agg(
        joined,
        vec![4, 6, 7],
        vec![(Sum, col(1).mul(lit(1.0).sub(col(2))))],
    );
    // l_orderkey, revenue, o_orderdate, o_shippriority
    let out = proj(grouped, vec![col(0), col(3), col(1), col(2)]);
    rows(topn(out, vec![SortKey::desc(1), SortKey::asc(2)], 10))
}

/// Q4 — Order Priority Checking.
pub fn q04(v: &ReadView) -> Vec<Tuple> {
    let orders = scan_where(
        v,
        "orders",
        &["o_orderkey", "o_orderpriority", "o_orderdate"],
        col(2)
            .ge(lit(d("1993-07-01")))
            .and(col(2).lt(lit(d("1993-10-01")))),
    );
    let late_li = proj(
        scan_where(
            v,
            "lineitem",
            &["l_orderkey", "l_commitdate", "l_receiptdate"],
            col(1).lt(col(2)),
        ),
        vec![col(0)],
    );
    let hits = join(orders, late_li, vec![0], vec![0], JoinKind::Semi);
    let out = agg(hits, vec![1], vec![(Count, lit(1i64))]);
    rows(sort(out, vec![SortKey::asc(0)]))
}

/// Q5 — Local Supplier Volume (6-way join).
pub fn q05(v: &ReadView) -> Vec<Tuple> {
    let region = scan_where(
        v,
        "region",
        &["r_regionkey", "r_name"],
        col(1).eq(lit("ASIA")),
    );
    let nation = join(
        scan(v, "nation", &["n_nationkey", "n_name", "n_regionkey"]),
        region,
        vec![2],
        vec![0],
        JoinKind::Inner,
    );
    // supplier': 0 skey, 1 snat, 2 nkey, 3 nname, ...
    let supplier = join(
        scan(v, "supplier", &["s_suppkey", "s_nationkey"]),
        nation,
        vec![1],
        vec![0],
        JoinKind::Inner,
    );
    let orders = scan_where(
        v,
        "orders",
        &["o_orderkey", "o_custkey", "o_orderdate"],
        col(2)
            .ge(lit(d("1994-01-01")))
            .and(col(2).lt(lit(d("1995-01-01")))),
    );
    // orders ++ customer: 0 okey, 1 ocust, 2 odate, 3 ckey, 4 cnat
    let oc = join(
        orders,
        scan(v, "customer", &["c_custkey", "c_nationkey"]),
        vec![1],
        vec![0],
        JoinKind::Inner,
    );
    // lineitem ++ oc: 0 lokey, 1 lsupp, 2 ext, 3 disc, 4 okey, ... 8 cnat
    let li = join(
        scan(
            v,
            "lineitem",
            &["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
        ),
        oc,
        vec![0],
        vec![0],
        JoinKind::Inner,
    );
    // ++ supplier': 9 skey, 10 snat, 11 nkey, 12 nname, ...
    let all = join(li, supplier, vec![1], vec![0], JoinKind::Inner);
    // local suppliers: customer and supplier from the same nation
    let local: BoxOp = filt(
        all,
        Expr::Cmp(exec::CmpOp::Eq, Box::new(col(8)), Box::new(col(10))),
    );
    let out = agg(
        local,
        vec![12],
        vec![(Sum, col(2).mul(lit(1.0).sub(col(3))))],
    );
    rows(sort(out, vec![SortKey::desc(1)]))
}
