//! The serving layer: run concurrent sessions against one database
//! through `server::Server` — bounded session pool, group-commit WAL,
//! write admission control, and per-table/per-session metrics.
//!
//! ```text
//! cargo run --example server
//! ```

use columnar::{Schema, TableMeta, Value, ValueType};
use engine::{Database, ScanSpec, TableOptions};
use exec::{run_to_rows, Batch};
use server::{Server, ServerConfig};
use std::sync::Arc;

fn main() {
    // 1. A WAL-backed database with one ordered table; its checkpoint
    //    images live beside the log, in `<wal>.images`. Sessions that
    //    commit concurrently share WAL append windows (group commit);
    //    `Database::new()` instead is an in-memory run.
    let wal = std::env::temp_dir().join("pdt_example_server.wal");
    let images = std::env::temp_dir().join("pdt_example_server.wal.images");
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_dir_all(&images);
    let db = Arc::new(Database::with_wal(&wal).expect("open wal"));
    let schema = Schema::from_pairs(&[("id", ValueType::Int), ("score", ValueType::Int)]);
    let rows: Vec<Vec<Value>> = (0..10_000i64)
        .map(|i| vec![Value::Int(i * 2), Value::Int(0)])
        .collect();
    db.create_table(
        TableMeta::new("events", schema.clone(), vec![0]),
        TableOptions::default(),
        rows,
    )
    .expect("bulk load");

    // 2. Start serving: the config bounds concurrent sessions and runs
    //    the background maintenance scheduler. Write admission control is
    //    always on (writers to a table whose delta outruns its maintenance
    //    budget get delayed, then rejected with ServerError::Backpressure).
    let server = Server::start(db, ServerConfig::default());

    // 3. Spawn writer sessions on the bounded pool: each runs its own
    //    snapshot-isolated transactions; commits from different sessions
    //    land in shared group-commit windows.
    let mut writers = Vec::new();
    for w in 0..4i64 {
        let types = schema.types();
        let handle = server
            .spawn(&format!("writer-{w}"), move |session| {
                let mut committed = 0u64;
                for round in 0..8i64 {
                    let mut txn = session.begin();
                    let fresh: Vec<Vec<Value>> = (0..16)
                        .map(|i| {
                            vec![
                                Value::Int(100_001 + (w * 10_000 + round * 100 + i) * 2),
                                Value::Int(w),
                            ]
                        })
                        .collect();
                    txn.append("events", Batch::from_rows(&types, &fresh))
                        .expect("append");
                    txn.commit().expect("commit");
                    committed += 1;
                }
                committed
            })
            .expect("spawn writer");
        writers.push(handle);
    }

    // 4. A reader session runs labelled queries concurrently — the label
    //    keys the shared latency registry (p50/p95/p99 per label).
    let reader = server
        .spawn("reader", |session| {
            let mut rows = 0usize;
            for _ in 0..5 {
                rows = session.query("count-events", |view| {
                    let mut scan = view.scan_with("events", ScanSpec::all()).expect("scan");
                    run_to_rows(&mut scan).len()
                });
            }
            rows
        })
        .expect("spawn reader");

    for w in writers {
        w.join().expect("writer session");
    }
    println!("final visible rows: {}", reader.join().expect("reader"));

    // 5. Shut down and print the serving metrics: per-table and
    //    per-session commit/query latency percentiles, throughput, and
    //    abort/backpressure counters.
    if let Some(stats) = server.db().wal_stats() {
        println!(
            "wal: {} commit records in {} append windows ({} writes saved by group commit)",
            stats.commits,
            stats.appends,
            stats.commits.saturating_sub(stats.appends)
        );
    }
    let metrics = server.shutdown();
    print!("{metrics}");
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_dir_all(&images);
}
