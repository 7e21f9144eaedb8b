//! Lock-free snapshot isolation with three PDT layers (paper §3.3),
//! including the three-transaction schedule of Figure 15 and a write-write
//! conflict abort.
//!
//! ```text
//! cargo run --example transactions
//! ```

use columnar::{Schema, TableMeta, Value, ValueType};
use engine::{Database, DbError, ScanSpec, TableOptions};
use exec::expr::{col, lit};
use exec::{run_to_rows, Batch};

fn balances(db: &Database) -> Vec<(i64, i64)> {
    let view = db.read_view();
    let mut scan = view
        .scan_with("accounts", ScanSpec::named(["id", "balance"]))
        .expect("scan accounts");
    run_to_rows(&mut scan)
        .into_iter()
        .map(|r| (r[0].as_int(), r[1].as_int()))
        .collect()
}

fn main() {
    let db = Database::new();
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("balance", ValueType::Int)]);
    let rows: Vec<Vec<Value>> = (0..10i64)
        .map(|i| vec![Value::Int(i), Value::Int(100)])
        .collect();
    db.create_table(
        TableMeta::new("accounts", schema, vec![0]),
        TableOptions::default(),
        rows,
    )
    .unwrap();

    // --- Figure 15's schedule: a starts, b starts, b commits, c starts,
    //     a commits (serialized against b), c commits (against a') --------
    let mut a = db.begin();
    let mut b = db.begin();
    b.update_where("accounts", col(0).eq(lit(1i64)), vec![(1, lit(150i64))])
        .unwrap();
    a.update_where("accounts", col(0).eq(lit(5i64)), vec![(1, lit(55i64))])
        .unwrap();
    b.commit().expect("b commits first (t2)");
    let mut c = db.begin();
    c.insert("accounts", vec![Value::Int(42), Value::Int(7)])
        .unwrap();
    a.commit()
        .expect("a commits at t3: Serialize(Ta, T'b) finds no conflict");
    c.commit()
        .expect("c commits at t4: Serialize(Tc, T'a) finds no conflict");
    println!("Figure 15 schedule committed; final balances:");
    for (id, bal) in balances(&db) {
        if bal != 100 {
            println!("  account {id}: {bal}");
        }
    }

    // --- snapshot isolation: a reader never sees in-flight commits -------
    // (the writer opens a batch of accounts with ONE append — one staged
    // batch and one WAL entry, however many rows)
    let reader = db.begin();
    let before = reader.visible_rows("accounts").unwrap();
    let mut w = db.begin();
    let types = [ValueType::Int, ValueType::Int];
    let burst: Vec<Vec<Value>> = (99..105i64)
        .map(|i| vec![Value::Int(i), Value::Int(1)])
        .collect();
    w.append("accounts", Batch::from_rows(&types, &burst))
        .unwrap();
    w.commit().unwrap();
    assert_eq!(
        reader.visible_rows("accounts").unwrap(),
        before,
        "reader's snapshot must be stable"
    );
    reader.abort();
    println!("\nsnapshot isolation held: reader kept its view across a concurrent batched commit");

    // --- batched writers conflict like row-at-a-time writers -------------
    let mut p = db.begin();
    let mut q = db.begin();
    p.append(
        "accounts",
        Batch::from_rows(&types, &[vec![Value::Int(200), Value::Int(0)]]),
    )
    .unwrap();
    q.append(
        "accounts",
        Batch::from_rows(
            &types,
            &[
                vec![Value::Int(200), Value::Int(7)],
                vec![Value::Int(201), Value::Int(8)],
            ],
        ),
    )
    .unwrap();
    p.commit().expect("first batched writer wins");
    match q.commit() {
        Err(e) => println!("overlapping batched append aborted as expected: {e}"),
        Ok(_) => panic!("expected the overlapping batch to conflict"),
    }

    // --- write-write conflict: optimistic concurrency control aborts -----
    let mut x = db.begin();
    let mut y = db.begin();
    x.update_where("accounts", col(0).eq(lit(3i64)), vec![(1, lit(1i64))])
        .unwrap();
    y.update_where("accounts", col(0).eq(lit(3i64)), vec![(1, lit(2i64))])
        .unwrap();
    x.commit().expect("first writer wins");
    match y.commit() {
        Err(e @ DbError::Conflict { .. }) => {
            println!("\nsecond writer aborted as expected: {e}")
        }
        other => panic!("expected a conflict, got {other:?}"),
    }

    // --- different columns of the same tuple reconcile (CheckModConflict)
    let db2 = Database::new();
    let schema = Schema::from_pairs(&[
        ("id", ValueType::Int),
        ("a", ValueType::Int),
        ("b", ValueType::Int),
    ]);
    db2.create_table(
        TableMeta::new("t", schema, vec![0]),
        TableOptions::default(),
        vec![vec![Value::Int(1), Value::Int(0), Value::Int(0)]],
    )
    .unwrap();
    let mut p = db2.begin();
    let mut q = db2.begin();
    p.update_where("t", col(0).eq(lit(1i64)), vec![(1, lit(11i64))])
        .unwrap();
    q.update_where("t", col(0).eq(lit(1i64)), vec![(2, lit(22i64))])
        .unwrap();
    p.commit().unwrap();
    q.commit()
        .expect("disjoint columns of the same tuple reconcile");
    let view = db2.read_view();
    let mut scan = view
        .scan_with("t", ScanSpec::named(["a", "b"]))
        .expect("scan t");
    let row = &run_to_rows(&mut scan)[0];
    println!(
        "\ncolumn-level reconciliation: a={} b={} (both updates survived)",
        row[0].as_int(),
        row[1].as_int()
    );
}
