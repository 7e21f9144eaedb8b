//! Golden tests reproducing the paper's running example (Figures 1–13).
//!
//! The `inventory` table with sort key (store, prod) is taken through
//! BATCH1 (inserts), BATCH2 (modifies + deletes) and BATCH3 (ghost-aware
//! inserts); after every batch we assert both the visible table image
//! (Figures 5, 9, 13) and the PDT/value-space contents (Figures 3–4, 7–8,
//! 11–12).

use crate::checkpoint::merge_rows;
use crate::tree::{DeleteOutcome, Pdt};
use crate::upd::{DEL, INS};
use columnar::{Schema, Tuple, Value, ValueType};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("store", ValueType::Str),
        ("prod", ValueType::Str),
        ("new", ValueType::Bool),
        ("qty", ValueType::Int),
    ])
}

fn row(store: &str, prod: &str, new: &str, qty: i64) -> Tuple {
    vec![
        store.into(),
        prod.into(),
        Value::Bool(new == "Y"),
        qty.into(),
    ]
}

/// Figure 1: TABLE0.
fn table0() -> Vec<Tuple> {
    vec![
        row("London", "chair", "N", 30),
        row("London", "stool", "N", 10),
        row("London", "table", "N", 20),
        row("Paris", "rug", "N", 1),
        row("Paris", "stool", "N", 5),
    ]
}

/// Locate the RID where a tuple with key (store, prod) must be inserted:
/// the position of the first visible tuple with a larger sort key — the
/// paper's `SELECT rid ... WHERE SK > sk ORDER BY rid LIMIT 1` query.
fn insert_rid(visible: &[Tuple], store: &str, prod: &str) -> u64 {
    let key: Vec<Value> = vec![store.into(), prod.into()];
    visible
        .iter()
        .position(|t| {
            let tk = vec![t[0].clone(), t[1].clone()];
            tk > key
        })
        .unwrap_or(visible.len()) as u64
}

/// Apply an SQL-level insert the way the engine does: find the RID by key,
/// resolve the SID relative to ghosts, then Algorithm 3.
fn sql_insert(pdt: &mut Pdt, visible: &[Tuple], t: Tuple) {
    let rid = insert_rid(visible, t[0].as_str(), t[1].as_str());
    let sk = vec![t[0].clone(), t[1].clone()];
    let sid = pdt.sk_rid_to_sid(&sk, rid);
    pdt.add_insert(sid, rid, &t);
}

fn find_rid(visible: &[Tuple], store: &str, prod: &str) -> u64 {
    visible
        .iter()
        .position(|t| t[0].as_str() == store && t[1].as_str() == prod)
        .unwrap_or_else(|| panic!("({store},{prod}) not visible")) as u64
}

fn batch1(pdt: &mut Pdt) {
    // Figure 2
    for t in [
        row("Berlin", "table", "Y", 10),
        row("Berlin", "cloth", "Y", 5),
        row("Berlin", "chair", "Y", 20),
    ] {
        let visible = merge_rows(&table0(), pdt);
        sql_insert(pdt, &visible, t);
    }
}

fn batch2(pdt: &mut Pdt) {
    // Figure 6
    let visible = merge_rows(&table0(), pdt);
    let rid = find_rid(&visible, "Berlin", "cloth");
    pdt.add_modify(rid, 3, &Value::Int(1));

    let visible = merge_rows(&table0(), pdt);
    let rid = find_rid(&visible, "London", "stool");
    pdt.add_modify(rid, 3, &Value::Int(9));

    let visible = merge_rows(&table0(), pdt);
    let rid = find_rid(&visible, "Berlin", "table");
    assert_eq!(
        pdt.add_delete(rid, &["Berlin".into(), "table".into()]),
        DeleteOutcome::RemovedInsert,
        "(Berlin,table) is not stable, it must really disappear"
    );

    let visible = merge_rows(&table0(), pdt);
    let rid = find_rid(&visible, "Paris", "rug");
    assert_eq!(
        pdt.add_delete(rid, &["Paris".into(), "rug".into()]),
        DeleteOutcome::AddedDelete
    );
}

fn batch3(pdt: &mut Pdt) {
    // Figure 10
    for t in [
        row("Paris", "rack", "Y", 4),
        row("London", "rack", "Y", 4),
        row("Berlin", "rack", "Y", 4),
    ] {
        let visible = merge_rows(&table0(), pdt);
        sql_insert(pdt, &visible, t);
    }
}

#[test]
fn table1_after_batch1() {
    let mut pdt = Pdt::with_fanout(schema(), vec![0, 1], 4);
    batch1(&mut pdt);
    pdt.check_invariants();

    // Figure 5: visible image
    let got = merge_rows(&table0(), &pdt);
    let want = vec![
        row("Berlin", "chair", "Y", 20),
        row("Berlin", "cloth", "Y", 5),
        row("Berlin", "table", "Y", 10),
        row("London", "chair", "N", 30),
        row("London", "stool", "N", 10),
        row("London", "table", "N", 20),
        row("Paris", "rug", "N", 1),
        row("Paris", "stool", "N", 5),
    ];
    assert_eq!(got, want);

    // Figure 3: all three inserts carry SID 0 (non-unique), order from the
    // left-to-right leaf traversal
    let entries: Vec<_> = pdt.iter().collect();
    assert_eq!(entries.len(), 3);
    assert!(entries.iter().all(|e| e.sid == 0 && e.upd.kind == INS));
    // Figure 4: VALS1 has only the insert table populated
    assert_eq!(pdt.delta_total(), 3);
}

#[test]
fn table2_after_batch2() {
    let mut pdt = Pdt::with_fanout(schema(), vec![0, 1], 4);
    batch1(&mut pdt);
    batch2(&mut pdt);
    pdt.check_invariants();

    // Figure 9: visible image ((Paris,rug) greyed out = not visible)
    let got = merge_rows(&table0(), &pdt);
    let want = vec![
        row("Berlin", "chair", "Y", 20),
        row("Berlin", "cloth", "Y", 1),
        row("London", "chair", "N", 30),
        row("London", "stool", "N", 9),
        row("London", "table", "N", 20),
        row("Paris", "stool", "N", 5),
    ];
    assert_eq!(got, want);

    // Figure 7: PDT2 = [ins i2, ins i1] [qty q0 @ sid 1, del d0 @ sid 3]
    let entries: Vec<_> = pdt.iter().collect();
    assert_eq!(entries.len(), 4);
    assert_eq!(entries[0].upd.kind, INS);
    assert_eq!(entries[1].upd.kind, INS);
    assert_eq!((entries[2].sid, entries[2].upd.kind), (1, 3)); // qty is col 3
    assert_eq!((entries[3].sid, entries[3].upd.kind), (3, DEL));
    // root delta: +2 inserts  −1 delete (Figure 7 shows delta 2, −1)
    assert_eq!(pdt.delta_total(), 1);

    // Figure 8: VALS2 — i1 updated in place to qty 1; del table holds
    // (Paris,rug); qty-modify table holds 9
    assert_eq!(
        pdt.vals().get_insert_col(entries[1].upd.val, 3),
        Value::Int(1)
    );
    assert_eq!(
        pdt.vals().get_delete(entries[3].upd.val),
        vec![Value::from("Paris"), Value::from("rug")]
    );
    assert_eq!(pdt.vals().get_modify(3, entries[2].upd.val), Value::Int(9));
}

#[test]
fn table3_after_batch3() {
    let mut pdt = Pdt::with_fanout(schema(), vec![0, 1], 4);
    batch1(&mut pdt);
    batch2(&mut pdt);
    batch3(&mut pdt);
    pdt.check_invariants();

    // Figure 13: visible image
    let got = merge_rows(&table0(), &pdt);
    let want = vec![
        row("Berlin", "chair", "Y", 20),
        row("Berlin", "cloth", "Y", 1),
        row("Berlin", "rack", "Y", 4),
        row("London", "chair", "N", 30),
        row("London", "rack", "Y", 4),
        row("London", "stool", "N", 9),
        row("London", "table", "N", 20),
        row("Paris", "rack", "Y", 4),
        row("Paris", "stool", "N", 5),
    ];
    assert_eq!(got, want);

    // Figure 11 SIDs: (Berlin,rack) insert at SID 0; (London,rack) at
    // SID 1; (Paris,rack) at SID 3 — *before* the (Paris,rug) ghost,
    // because rack < rug ("Respecting Deletes").
    let inserts: Vec<_> = pdt
        .iter()
        .filter(|e| e.upd.is_ins())
        .map(|e| (pdt.vals().get_insert(e.upd.val), e.sid))
        .collect();
    let sid_of = |store: &str, prod: &str| {
        inserts
            .iter()
            .find(|(t, _)| t[0].as_str() == store && t[1].as_str() == prod)
            .map(|(_, sid)| *sid)
            .unwrap()
    };
    assert_eq!(sid_of("Berlin", "rack"), 0);
    assert_eq!(sid_of("London", "rack"), 1);
    assert_eq!(sid_of("Paris", "rack"), 3, "ghost-respecting SID");

    // 7 update entries total, net delta +4 (5 ins, 1 del, 1 mod)
    assert_eq!(pdt.len(), 7);
    assert_eq!(pdt.delta_total(), 4);
}

#[test]
fn sparse_index_query_covers_ghost_positioned_insert() {
    // §2.1: SELECT qty FROM inventory WHERE store='Paris' AND prod<'rug'
    // must find (Paris,rack), which only exists as a PDT insert whose SID
    // respects the (Paris,rug) ghost. A *stale* sparse index built on
    // TABLE0 must still produce a covering SID range.
    use columnar::{StableTable, TableMeta};

    let mut pdt = Pdt::with_fanout(schema(), vec![0, 1], 4);
    batch1(&mut pdt);
    batch2(&mut pdt);
    batch3(&mut pdt);

    let table = StableTable::load(
        TableMeta::new("inventory", schema(), vec![0, 1]),
        2,
        table0(),
    )
    .unwrap();

    // Stale sparse index lookup on the ORIGINAL image:
    let range = table.sid_range(
        Some(&[Value::from("Paris")]),
        Some(&[Value::from("Paris"), Value::from("rug")]),
    );
    // (Paris,rack) has SID 3 — the range must cover it.
    assert!(range.start <= 3 && range.end > 3, "range {range:?}");

    // Merge just that SID range and filter: the new tuple qualifies.
    let all = merge_rows(&table0(), &pdt);
    let hits: Vec<&Tuple> = all
        .iter()
        .filter(|t| t[0].as_str() == "Paris" && t[1].as_str() < "rug")
        .collect();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0][1].as_str(), "rack");
    assert_eq!(hits[0][3], Value::Int(4));
}
