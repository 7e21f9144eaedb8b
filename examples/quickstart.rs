//! Quickstart: create an ordered columnar table, write to it through the
//! batch-first transactional API, and query it — in under a minute of
//! reading.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use columnar::{Schema, TableMeta, Value, ValueType};
use engine::{Database, ScanSpec, TableOptions};
use exec::expr::{col, lit};
use exec::{run_to_rows, Batch};

fn main() {
    // 1. A database with one ordered table: events(id, kind, score),
    //    physically sorted on `id`. The default TableOptions maintain the
    //    table with a Positional Delta Tree; pass
    //    `.with_policy(UpdatePolicy::Vdt)` to compare the value-based
    //    baseline — everything below stays identical.
    let db = Database::new();
    let schema = Schema::from_pairs(&[
        ("id", ValueType::Int),
        ("kind", ValueType::Str),
        ("score", ValueType::Double),
    ]);
    let rows: Vec<Vec<Value>> = (0..1000i64)
        .map(|i| {
            vec![
                Value::Int(i * 2),
                Value::Str(if i % 3 == 0 { "alpha" } else { "beta" }.into()),
                Value::Double(i as f64 / 10.0),
            ]
        })
        .collect();
    db.create_table(
        TableMeta::new("events", schema.clone(), vec![0]),
        // small blocks so the profiling step below has ranges to prune;
        // the default (4096 rows/block) suits real tables
        TableOptions::default().with_block_rows(256),
        rows,
    )
    .expect("bulk load");

    // 2. Writes are batch-first: a whole columnar batch appends with ONE
    //    position-resolving scan, one staging call and one WAL entry —
    //    that is where differential-store write throughput comes from.
    //    Updates run in snapshot-isolated transactions and buffer in the
    //    table's delta structure instead of touching the stable image.
    let mut txn = db.begin();
    let fresh: Vec<Vec<Value>> = [
        (7i64, "gamma", 99.9),
        (11, "gamma", 98.7),
        (1999, "gamma", 97.5),
    ]
    .iter()
    .map(|&(id, kind, score)| vec![Value::Int(id), kind.into(), Value::Double(score)])
    .collect();
    txn.append("events", Batch::from_rows(&schema.types(), &fresh))
        .expect("batched append");
    // predicate statements ride the same batched path internally: one
    // victim scan, one staged batch per statement
    txn.update_where("events", col(0).eq(lit(10i64)), vec![(2, lit(1000.0))])
        .expect("update");
    txn.delete_where(
        "events",
        col(1).eq(lit("alpha")).and(col(0).lt(lit(100i64))),
    )
    .expect("delete");
    txn.commit().expect("commit");

    // 3. Streaming loads use an Appender: rows buffer client-side and
    //    flush as sorted batch appends.
    let mut txn = db.begin();
    let mut appender = txn.appender("events").expect("appender");
    for i in 0..500i64 {
        appender
            .push(vec![
                Value::Int(2001 + i * 2),
                Value::Str("bulk".into()),
                Value::Double(0.0),
            ])
            .expect("push");
    }
    let loaded = appender.finish().expect("finish");
    txn.commit().expect("commit bulk load");
    println!("streamed {loaded} rows through the appender");

    // 4. Queries merge the deltas positionally during the scan — without
    //    reading the sort-key column unless the query asks for it. One
    //    ScanSpec builder covers projection by name or index, sort-key
    //    ranges and rid windows.
    let view = db.read_view();
    let io_before = view.io.stats();
    let mut scan = view
        .scan_with("events", ScanSpec::named(["kind", "score"]))
        .expect("scan");
    let result = run_to_rows(&mut scan);
    let io = view.io.stats().since(&io_before);

    println!("visible rows: {}", result.len());
    println!(
        "gamma present: {}",
        result.iter().any(|r| r[0].as_str() == "gamma")
    );
    println!(
        "I/O for the 2-column scan: {} bytes in {} blocks (no id column read)",
        io.bytes_read, io.blocks_read
    );

    // 5. A checkpoint folds the deltas into a fresh stable image.
    db.checkpoint("events").expect("checkpoint");
    let clean = db.clean_view();
    let mut scan = clean
        .scan_with("events", ScanSpec::all())
        .expect("clean scan");
    println!(
        "rows after checkpoint (clean scan): {}",
        run_to_rows(&mut scan).len()
    );

    // 6. explain_analyze profiles a query: rows, I/O, merge path, blocks
    //    decoded vs zone-map-skipped — as its scan counted them. This
    //    selective range decodes only the qualifying blocks of the
    //    checkpointed table.
    let profile = db
        .read_view()
        .explain_analyze(
            "events",
            ScanSpec::named(["score"]).key_range(vec![Value::Int(100)], vec![Value::Int(160)]),
        )
        .expect("explain analyze");
    print!("{profile}");
    assert!(profile.rows > 0, "range holds rows");

    // The same counters, engine-wide: one snapshot with Prometheus-text
    // and JSON expositions.
    let metrics = db.metrics();
    println!(
        "unified metrics: db.io.blocks_read={}",
        metrics.value("db.io.blocks_read").unwrap_or(0)
    );
}
