//! TPC-H Q6–Q11.

use super::{agg, d, filt, join, proj, rows, scan, scan_where, sort, topn};
use columnar::Tuple;
use engine::ReadView;
use exec::expr::{col, lit, Expr};
use exec::{AggFunc::*, JoinKind, SortKey};

/// Q6 — Forecasting Revenue Change. A pure lineitem scan+filter+sum: the
/// paper's poster child for VDT CPU overhead (Plot 4, "e.g. in query 6").
pub fn q06(v: &ReadView) -> Vec<Tuple> {
    // 0 ship, 1 disc, 2 qty, 3 ext
    let li = scan_where(
        v,
        "lineitem",
        &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
        col(0)
            .ge(lit(d("1994-01-01")))
            .and(col(0).lt(lit(d("1995-01-01"))))
            .and(col(1).between(0.05, 0.07))
            .and(col(2).lt(lit(24.0))),
    );
    rows(agg(li, vec![], vec![(Sum, col(3).mul(col(1)))]))
}

/// Q7 — Volume Shipping between FRANCE and GERMANY.
pub fn q07(v: &ReadView) -> Vec<Tuple> {
    let nations = |v| scan(v, "nation", &["n_nationkey", "n_name"]);
    // supplier': 0 skey, 1 snat, 2 n1key, 3 n1name
    let supplier = join(
        scan(v, "supplier", &["s_suppkey", "s_nationkey"]),
        nations(v),
        vec![1],
        vec![0],
        JoinKind::Inner,
    );
    // customer': 0 ckey, 1 cnat, 2 n2key, 3 n2name
    let customer = join(
        scan(v, "customer", &["c_custkey", "c_nationkey"]),
        nations(v),
        vec![1],
        vec![0],
        JoinKind::Inner,
    );
    // orders': 0 okey, 1 ocust, 2 ckey, 3 cnat, 4 n2key, 5 n2name
    let orders = join(
        scan(v, "orders", &["o_orderkey", "o_custkey"]),
        customer,
        vec![1],
        vec![0],
        JoinKind::Inner,
    );
    let li = scan_where(
        v,
        "lineitem",
        &[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
        col(4).between(d("1995-01-01"), d("1996-12-31")),
    );
    // li': 0 lokey, 1 lsupp, 2 ext, 3 disc, 4 ship, 5 okey, ... 10 n2name
    let li = join(li, orders, vec![0], vec![0], JoinKind::Inner);
    // ++ supplier': 11 skey, 12 snat, 13 n1key, 14 n1name
    let all = join(li, supplier, vec![1], vec![0], JoinKind::Inner);
    let pair = |a: &str, b: &str| col(14).eq(lit(a)).and(col(10).eq(lit(b)));
    let all = filt(all, pair("FRANCE", "GERMANY").or(pair("GERMANY", "FRANCE")));
    // supp_nation, cust_nation, year, volume
    let volumes = proj(
        all,
        vec![
            col(14),
            col(10),
            col(4).year(),
            col(2).mul(lit(1.0).sub(col(3))),
        ],
    );
    let out = agg(volumes, vec![0, 1, 2], vec![(Sum, col(3))]);
    rows(sort(
        out,
        vec![SortKey::asc(0), SortKey::asc(1), SortKey::asc(2)],
    ))
}

/// Q8 — National Market Share of BRAZIL within AMERICA.
pub fn q08(v: &ReadView) -> Vec<Tuple> {
    let region = scan_where(
        v,
        "region",
        &["r_regionkey", "r_name"],
        col(1).eq(lit("AMERICA")),
    );
    let am_nations = join(
        scan(v, "nation", &["n_nationkey", "n_regionkey"]),
        region,
        vec![1],
        vec![0],
        JoinKind::Semi,
    );
    // customers in AMERICA
    let customer = join(
        scan(v, "customer", &["c_custkey", "c_nationkey"]),
        am_nations,
        vec![1],
        vec![0],
        JoinKind::Semi,
    );
    let orders = scan_where(
        v,
        "orders",
        &["o_orderkey", "o_custkey", "o_orderdate"],
        col(2).between(d("1995-01-01"), d("1996-12-31")),
    );
    // orders of american customers: 0 okey, 1 ocust, 2 odate
    let orders = join(orders, customer, vec![1], vec![0], JoinKind::Semi);
    let part = scan_where(
        v,
        "part",
        &["p_partkey", "p_type"],
        col(1).eq(lit("ECONOMY ANODIZED STEEL")),
    );
    let li = scan(
        v,
        "lineitem",
        &[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
        ],
    );
    let li = join(li, part, vec![1], vec![0], JoinKind::Semi);
    // ++ orders: 5 okey, 6 ocust, 7 odate
    let li = join(li, orders, vec![0], vec![0], JoinKind::Inner);
    // ++ supplier: 8 skey, 9 snat
    let li = join(
        li,
        scan(v, "supplier", &["s_suppkey", "s_nationkey"]),
        vec![2],
        vec![0],
        JoinKind::Inner,
    );
    // ++ nation (supplier's): 10 nkey, 11 nname
    let li = join(
        li,
        scan(v, "nation", &["n_nationkey", "n_name"]),
        vec![9],
        vec![0],
        JoinKind::Inner,
    );
    // year, volume, brazil_volume
    let volume = col(3).mul(lit(1.0).sub(col(4)));
    let shaped = proj(
        li,
        vec![
            col(7).year(),
            volume.clone(),
            Expr::Case(
                vec![(col(11).eq(lit("BRAZIL")), volume)],
                Box::new(lit(0.0)),
            ),
        ],
    );
    let grouped = agg(shaped, vec![0], vec![(Sum, col(2)), (Sum, col(1))]);
    let out = proj(grouped, vec![col(0), col(1).div(col(2))]);
    rows(sort(out, vec![SortKey::asc(0)]))
}

/// Q9 — Product Type Profit Measure (`p_name LIKE '%green%'`).
pub fn q09(v: &ReadView) -> Vec<Tuple> {
    let part = scan_where(v, "part", &["p_partkey", "p_name"], col(1).like("%green%"));
    let li = scan(
        v,
        "lineitem",
        &[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    );
    let li = join(li, part, vec![1], vec![0], JoinKind::Semi);
    // ++ partsupp: 6 pspart, 7 pssupp, 8 cost
    let li = join(
        li,
        scan(
            v,
            "partsupp",
            &["ps_partkey", "ps_suppkey", "ps_supplycost"],
        ),
        vec![1, 2],
        vec![0, 1],
        JoinKind::Inner,
    );
    // ++ orders: 9 okey, 10 odate
    let li = join(
        li,
        scan(v, "orders", &["o_orderkey", "o_orderdate"]),
        vec![0],
        vec![0],
        JoinKind::Inner,
    );
    // ++ supplier: 11 skey, 12 snat
    let li = join(
        li,
        scan(v, "supplier", &["s_suppkey", "s_nationkey"]),
        vec![2],
        vec![0],
        JoinKind::Inner,
    );
    // ++ nation: 13 nkey, 14 nname
    let li = join(
        li,
        scan(v, "nation", &["n_nationkey", "n_name"]),
        vec![12],
        vec![0],
        JoinKind::Inner,
    );
    // nation, o_year, amount
    let shaped = proj(
        li,
        vec![
            col(14),
            col(10).year(),
            col(4).mul(lit(1.0).sub(col(5))).sub(col(8).mul(col(3))),
        ],
    );
    let out = agg(shaped, vec![0, 1], vec![(Sum, col(2))]);
    rows(sort(out, vec![SortKey::asc(0), SortKey::desc(1)]))
}

/// Q10 — Returned Item Reporting (top 20 customers).
pub fn q10(v: &ReadView) -> Vec<Tuple> {
    let orders = scan_where(
        v,
        "orders",
        &["o_orderkey", "o_custkey", "o_orderdate"],
        col(2)
            .ge(lit(d("1993-10-01")))
            .and(col(2).lt(lit(d("1994-01-01")))),
    );
    let li = scan_where(
        v,
        "lineitem",
        &[
            "l_orderkey",
            "l_extendedprice",
            "l_discount",
            "l_returnflag",
        ],
        col(3).eq(lit("R")),
    );
    // 0 lokey, 1 ext, 2 disc, 3 rf, 4 okey, 5 ocust, 6 odate
    let li = join(li, orders, vec![0], vec![0], JoinKind::Inner);
    // ++ customer: 7 ckey, 8 cname, 9 acct, 10 phone, 11 cnat, 12 addr, 13 comm
    let li = join(
        li,
        scan(
            v,
            "customer",
            &[
                "c_custkey",
                "c_name",
                "c_acctbal",
                "c_phone",
                "c_nationkey",
                "c_address",
                "c_comment",
            ],
        ),
        vec![5],
        vec![0],
        JoinKind::Inner,
    );
    // ++ nation: 14 nkey, 15 nname
    let li = join(
        li,
        scan(v, "nation", &["n_nationkey", "n_name"]),
        vec![11],
        vec![0],
        JoinKind::Inner,
    );
    let grouped = agg(
        li,
        vec![7, 8, 9, 10, 15, 12, 13],
        vec![(Sum, col(1).mul(lit(1.0).sub(col(2))))],
    );
    // c_custkey, c_name, revenue, c_acctbal, n_name, c_address, c_phone, c_comment
    let out = proj(
        grouped,
        vec![
            col(0),
            col(1),
            col(7),
            col(2),
            col(4),
            col(5),
            col(3),
            col(6),
        ],
    );
    rows(topn(out, vec![SortKey::desc(2), SortKey::asc(0)], 20))
}

/// Q11 — Important Stock Identification (GERMANY; fraction 0.0001/SF). Does
/// not touch orders/lineitem.
pub fn q11(v: &ReadView, sf: f64) -> Vec<Tuple> {
    fn german_ps<'v>(v: &'v ReadView) -> exec::BoxOp<'v> {
        let nation = scan_where(
            v,
            "nation",
            &["n_nationkey", "n_name"],
            col(1).eq(lit("GERMANY")),
        );
        let supplier = join(
            scan(v, "supplier", &["s_suppkey", "s_nationkey"]),
            nation,
            vec![1],
            vec![0],
            JoinKind::Semi,
        );
        join(
            scan(
                v,
                "partsupp",
                &["ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"],
            ),
            supplier,
            vec![1],
            vec![0],
            JoinKind::Semi,
        )
    }
    let value = || col(3).mul(col(2)); // supplycost * availqty
    let total_rows = rows(agg(german_ps(v), vec![], vec![(Sum, value())]));
    let total = total_rows[0][0].as_double();
    let threshold = total * (0.0001 / sf.max(1e-6)).min(0.01);
    let grouped = agg(german_ps(v), vec![0], vec![(Sum, value())]);
    let out = filt(grouped, col(1).gt(lit(threshold)));
    rows(sort(out, vec![SortKey::desc(1)]))
}
