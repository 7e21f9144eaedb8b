//! Per-query profiling and the unified metrics surface.
//!
//! `explain_analyze` on a selective ranged scan must report the
//! zone-map-skipped and decoded block counts *consistently with the
//! engine's `IoStats`* — a scan's own counts are the per-query slice of
//! the same accounting, and stay its own beside concurrent scans. The server side pins the live-progress contract
//! (`Server::metrics()` shows maintenance advancing mid-run, before
//! shutdown) and the slow-query trace log.

use columnar::{ColumnVec, Schema, TableMeta, Tuple, Value, ValueType};
use engine::{Database, MaintenanceConfig, PartitionSpec, ScanSpec, TableOptions};
use exec::ops::Operator;
use server::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn schema() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)])
}

/// 4096 rows, even keys, 64 blocks of 64 rows.
fn blocked_db() -> Database {
    let rows: Vec<Tuple> = (0..4096i64)
        .map(|i| vec![Value::Int(i * 2), Value::Int(i)])
        .collect();
    let db = Database::new();
    db.create_table(
        TableMeta::new("t", schema(), vec![0]),
        TableOptions::default().with_block_rows(64),
        rows,
    )
    .unwrap();
    db
}

#[test]
fn ranged_scan_zone_skips_match_io_stats() {
    let db = blocked_db();
    let view = db.read_view();
    // lo = 1024 is the first key of block 8, so the sparse index's
    // over-inclusive leading block (block 7, max key 1022) is exactly
    // what the zone map can prove empty and skip
    let spec = || ScanSpec::cols(vec![1]).key_range(vec![Value::Int(1024)], vec![Value::Int(1100)]);

    let io0 = db.io().stats();
    let mut scan = view.scan_with("t", spec()).unwrap();
    let mut rows = 0u64;
    while let Some(b) = scan.next_batch() {
        rows += b.num_rows() as u64;
    }
    let counts = *scan.counts();
    drop(scan);
    let io = db.io().stats().since(&io0);

    // ranged scans are block-granular: the emitted rows are the
    // surviving blocks' rows, and the counts agree with the drain
    assert_eq!(counts.rows, rows);
    assert!(rows >= 39, "keys 1024..=1100 are all emitted (got {rows})");
    assert_eq!(counts.segments, 1);
    assert_eq!(counts.path_label(), "clean", "no delta → clean path");
    assert!(
        counts.blocks_skipped > 0,
        "zone map pruned blocks: {counts:?}"
    );
    // one projected column → the decoded block count IS the IoStats
    // block count for this query, and the byte counts agree exactly
    assert_eq!(counts.io, io, "the scan's counts vs the database's tracker");
    assert_eq!(counts.blocks_decoded, io.blocks_read);
    assert!(
        counts.blocks_decoded < 8,
        "selective scan decodes few of 64 blocks"
    );

    // explain_analyze reports the same numbers
    let qp = db.read_view().explain_analyze("t", spec()).unwrap();
    assert_eq!(qp.rows, rows);
    assert_eq!(qp.io, counts.io);
    let text = qp.to_string();
    assert!(text.contains("Scan t ["), "{text}");
    assert!(text.contains("zone-skipped"), "{text}");
    assert!(text.contains("path=clean"), "{text}");
}

#[test]
fn explain_analyze_reports_merge_path_after_updates() {
    let db = blocked_db();
    let mut txn = db.begin();
    txn.insert("t", vec![Value::Int(1001), Value::Int(-1)])
        .unwrap();
    txn.commit().unwrap();

    let qp = db
        .read_view()
        .explain_analyze("t", ScanSpec::all())
        .unwrap();
    assert_eq!(qp.rows, 4097);
    assert_eq!(qp.plan.path_label(), "pdt-kernel");
    assert!(qp.to_string().contains("path=pdt-kernel"), "{qp}");
    assert!(qp.plan.wall_ns > 0, "wall time recorded");
    assert!(qp.plan.batches > 0);
}

/// A rid window that starts inside the last of four partitions scans that
/// partition alone: the partitions the window passes over are neither
/// counted as segments nor named in the path label.
#[test]
fn rid_window_counts_only_the_partition_it_scans() {
    let rows: Vec<Tuple> = (0..4096i64)
        .map(|i| vec![Value::Int(i * 2), Value::Int(i)])
        .collect();
    let db = Database::new();
    db.create_table(
        TableMeta::new("t", schema(), vec![0]),
        TableOptions {
            block_rows: 64,
            partitions: PartitionSpec::Count(4),
            ..TableOptions::default()
        },
        rows,
    )
    .unwrap();
    // a committed update in partition 0 only: its path is the PDT merge,
    // the other partitions' stays clean
    let mut txn = db.begin();
    txn.update_col("t", &[10], 1, ColumnVec::Int(vec![-10]))
        .unwrap();
    txn.commit().unwrap();

    let view = db.read_view();
    let whole = view.explain_analyze("t", ScanSpec::all()).unwrap();
    assert_eq!(whole.plan.segments, 4);
    assert_eq!(whole.plan.path_label(), "clean,pdt-kernel");

    let qp = view
        .explain_analyze("t", ScanSpec::all().rid_range(3500, 3600))
        .unwrap();
    assert_eq!(qp.rows, 100);
    assert_eq!(qp.plan.segments, 1, "{qp}");
    assert_eq!(qp.plan.path_label(), "clean", "{qp}");
}

/// A scan's I/O is its own: another thread scanning another table on the
/// same database does not leak into it.
#[test]
fn explain_analyze_io_is_the_scans_own_under_concurrent_scans() {
    let db = blocked_db();
    db.create_table(
        TableMeta::new("other", schema(), vec![0]),
        TableOptions::default().with_block_rows(64),
        (0..4096i64)
            .map(|i| vec![Value::Int(i), Value::Int(-i)])
            .collect::<Vec<Tuple>>(),
    )
    .unwrap();
    let solo = db
        .read_view()
        .explain_analyze("t", ScanSpec::all())
        .unwrap()
        .io;
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let scanner = s.spawn(|| {
            let mut scans = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let view = db.read_view();
                let mut scan = view.scan_with("other", ScanSpec::all()).unwrap();
                while scan.next_batch().is_some() {}
                scans += 1;
            }
            scans
        });
        let differing = (0..200)
            .filter(|_| {
                let qp = db
                    .read_view()
                    .explain_analyze("t", ScanSpec::all())
                    .unwrap();
                qp.io != solo
            })
            .count();
        stop.store(true, Ordering::Relaxed);
        assert!(scanner.join().unwrap() > 0, "the second table was scanned");
        assert_eq!(differing, 0, "of 200 runs beside a concurrent scan");
    });
}

#[test]
fn server_metrics_show_live_maintenance_progress() {
    let _g = serial();
    let db = std::sync::Arc::new(Database::new());
    db.create_table(
        TableMeta::new("t", schema(), vec![0]),
        TableOptions::default()
            .with_flush_threshold(64)
            .with_checkpoint_threshold(1 << 14),
        (0..256i64)
            .map(|i| vec![Value::Int(i * 2), Value::Int(i)])
            .collect::<Vec<Tuple>>(),
    )
    .unwrap();
    let server = Server::start(
        db.clone(),
        ServerConfig {
            maintenance: Some(MaintenanceConfig::with_tick(
                std::time::Duration::from_millis(1),
            )),
            ..ServerConfig::default()
        },
    );

    // commit until the background scheduler demonstrably flushed AND
    // checkpointed — observed via `Server::metrics()` mid-run
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let live = loop {
        let mut txn = db.begin();
        for i in 0..32 {
            let k = 100_000 + next_key();
            txn.insert("t", vec![Value::Int(k), Value::Int(i)]).unwrap();
        }
        txn.commit().unwrap();
        let m = server.metrics();
        let u = &m.unified;
        if u.value("maintenance.flushes") > Some(0) && u.value("maintenance.checkpoints") > Some(0)
        {
            break m;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "maintenance never progressed: {u}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    };

    // the unified snapshot carries engine, maintenance and server series
    let u = &live.unified;
    assert!(u.value("maintenance.flushes").unwrap() > 0);
    assert!(u.value("maintenance.checkpoints").unwrap() > 0);
    assert!(u.value("db.txn.seq").unwrap() > 0);
    assert!(u.value("server.uptime_ns").unwrap() > 0);
    let text = u.to_text();
    assert!(text.contains("maintenance_flushes"), "{text}");
    assert!(text.contains("db_txn_seq"), "{text}");
    let json = u.to_json();
    assert!(json.contains("\"maintenance.checkpoints\""), "{json}");

    // shutdown's final snapshot is at least as advanced as the live one
    let fin = server.shutdown();
    assert!(fin.unified.value("maintenance.flushes") >= live.unified.value("maintenance.flushes"));
}

/// Monotone fresh odd keys, process-wide — inserts never collide.
fn next_key() -> i64 {
    use std::sync::atomic::{AtomicI64, Ordering};
    static NEXT: AtomicI64 = AtomicI64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed) * 2 + 1
}
