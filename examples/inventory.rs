//! The paper's running example (Figures 1–13), executed end to end.
//!
//! Walks the `inventory` table — sort key (store, prod) — through BATCH1
//! (inserts), BATCH2 (modifies + deletes) and BATCH3 (ghost-respecting
//! inserts), printing the visible image after each batch and demonstrating
//! the stale-sparse-index query from §2.1.
//!
//! ```text
//! cargo run --example inventory
//! ```

use columnar::{Schema, TableMeta, Value, ValueType};
use engine::{Database, ScanSpec, TableOptions};
use exec::expr::{col, lit};
use exec::{run_to_rows, Batch};

fn print_table(db: &Database, caption: &str) {
    let view = db.read_view();
    let mut scan = view
        .scan_with(
            "inventory",
            ScanSpec::named(["store", "prod", "new", "qty"]),
        )
        .expect("scan inventory");
    println!("\n{caption}");
    println!("{:<8} {:<8} {:<4} {:>4}", "store", "prod", "new", "qty");
    for row in run_to_rows(&mut scan) {
        println!(
            "{:<8} {:<8} {:<4} {:>4}",
            row[0].as_str(),
            row[1].as_str(),
            if row[2].as_bool() { "Y" } else { "N" },
            row[3].as_int()
        );
    }
}

fn main() {
    let db = Database::new();
    let schema = Schema::from_pairs(&[
        ("store", ValueType::Str),
        ("prod", ValueType::Str),
        ("new", ValueType::Bool),
        ("qty", ValueType::Int),
    ]);
    let table0: Vec<Vec<Value>> = [
        ("London", "chair", 30i64),
        ("London", "stool", 10),
        ("London", "table", 20),
        ("Paris", "rug", 1),
        ("Paris", "stool", 5),
    ]
    .iter()
    .map(|(s, p, q)| {
        vec![
            Value::from(*s),
            Value::from(*p),
            Value::Bool(false),
            Value::Int(*q),
        ]
    })
    .collect();
    db.create_table(
        TableMeta::new("inventory", schema, vec![0, 1]),
        // tiny blocks so the sparse index is non-trivial
        TableOptions::default().with_block_rows(2),
        table0,
    )
    .unwrap();
    print_table(&db, "TABLE0 (Figure 1): bulk-loaded stable image");

    // BATCH1 (Figure 2): the Berlin tuples sort before everything and all
    // receive SID 0 in the PDT (Figure 3). The paper's batches really are
    // batches here: one `append` call — one insert-rank scan, one staged
    // batch, one WAL entry for the whole statement.
    let schema_types = db.table("inventory").unwrap().schema().types();
    let batch1: Vec<Vec<Value>> = [("table", 10i64), ("cloth", 5), ("chair", 20)]
        .iter()
        .map(|&(p, q)| vec!["Berlin".into(), p.into(), true.into(), q.into()])
        .collect();
    let mut t = db.begin();
    t.append("inventory", Batch::from_rows(&schema_types, &batch1))
        .unwrap();
    t.commit().unwrap();
    print_table(&db, "TABLE1 (Figure 5): after BATCH1 inserts");

    // BATCH2 (Figure 6): modify-of-insert folds in place; delete-of-insert
    // erases; (Paris,rug) becomes a ghost whose SK is kept in the delete
    // table.
    let mut t = db.begin();
    t.update_where(
        "inventory",
        col(0).eq(lit("Berlin")).and(col(1).eq(lit("cloth"))),
        vec![(3, lit(1i64))],
    )
    .unwrap();
    t.update_where(
        "inventory",
        col(0).eq(lit("London")).and(col(1).eq(lit("stool"))),
        vec![(3, lit(9i64))],
    )
    .unwrap();
    t.delete_where(
        "inventory",
        col(0).eq(lit("Berlin")).and(col(1).eq(lit("table"))),
    )
    .unwrap();
    t.delete_where(
        "inventory",
        col(0).eq(lit("Paris")).and(col(1).eq(lit("rug"))),
    )
    .unwrap();
    t.commit().unwrap();
    print_table(&db, "TABLE2 (Figure 9): after BATCH2 updates/deletes");

    // BATCH3 (Figure 10): (Paris,rack) must receive SID 3 — *before* the
    // (Paris,rug) ghost — so the sparse index built on TABLE0 stays valid.
    // Again one append; rows need not arrive sorted.
    let batch3: Vec<Vec<Value>> = ["Paris", "London", "Berlin"]
        .iter()
        .map(|&s| vec![s.into(), "rack".into(), true.into(), 4i64.into()])
        .collect();
    let mut t = db.begin();
    t.append("inventory", Batch::from_rows(&schema_types, &batch3))
        .unwrap();
    t.commit().unwrap();
    print_table(&db, "TABLE3 (Figure 13): after BATCH3 inserts");

    // §2.1's query: the stale sparse index must still find (Paris,rack),
    // which only exists as a PDT insert positioned relative to the ghost.
    let view = db.read_view();
    let mut scan = view
        .scan_with(
            "inventory",
            ScanSpec::cols(vec![0, 1, 3]).bounds(exec::ScanBounds {
                lo: Some(vec!["Paris".into()]),
                hi: Some(vec!["Paris".into(), "rug".into()]),
            }),
        )
        .expect("ranged scan");
    let hits: Vec<_> = run_to_rows(&mut scan)
        .into_iter()
        .filter(|r| r[0].as_str() == "Paris" && r[1].as_str() < "rug")
        .collect();
    println!("\nSELECT qty WHERE store='Paris' AND prod<'rug'  (via stale sparse index)");
    for r in &hits {
        println!(
            "  -> {} {} qty={}",
            r[0].as_str(),
            r[1].as_str(),
            r[2].as_int()
        );
    }
    assert_eq!(hits.len(), 1, "the ghost-respecting insert must be found");
}
