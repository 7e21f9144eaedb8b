//! Figure 23 (ours) — cold start from persisted compressed images vs
//! full WAL replay, plus zone-map block skipping on selective scans.
//!
//! Two databases receive the identical bulk load + update workload. One
//! persists checkpoint images (`Database::with_storage`) and checkpoints;
//! the other is WAL-only and never checkpoints, so its log holds the full
//! history. Both are then re-opened cold and recovered:
//!
//! * **image path** — open the manifest, decode the compressed column
//!   blocks (every byte charged to the `IoTracker`), replay only the
//!   post-checkpoint WAL tail;
//! * **replay path** — replay every commit ever made.
//!
//! Reported per policy: recovery wall time, WAL records replayed, image
//! blocks/bytes read, and the modelled disk-transfer time of the image at
//! a configurable bandwidth. A second section scans a selective key range
//! on the recovered (clean) table and reports the blocks/bytes a zone-map
//! skipping scan reads vs a full-table scan — the stable-image block
//! min/max metadata serving range predicates.
//!
//! Knobs: `PDT_BENCH_ROWS` (default 200_000), `PDT_BENCH_COLD_UPDATES`
//! (update commits before the checkpoint, default 2_000),
//! `PDT_BENCH_COLD_BW` (modelled disk bytes/sec, default 150e6).

use bench::{env_f64, env_u64, BenchJson};
use columnar::{Schema, TableMeta, Value, ValueType};
use engine::{Database, ScanSpec, TableOptions, UpdatePolicy, ALL_POLICIES};
use exec::expr::{col, lit};
use std::path::Path;
use std::time::Instant;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("qty", ValueType::Int),
        ("tag", ValueType::Str),
    ])
}

fn base_rows(n: u64) -> Vec<Vec<Value>> {
    (0..n as i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 97),
                Value::Str(format!("t{}", i % 11)),
            ]
        })
        .collect()
}

fn open(wal: &Path, images: Option<&Path>, policy: UpdatePolicy, rows: u64) -> Database {
    let db = match images {
        Some(dir) => Database::with_storage(wal, dir).unwrap(),
        None => Database::with_wal(wal).unwrap(),
    };
    db.create_table(
        TableMeta::new("t", schema(), vec![0]),
        TableOptions {
            block_rows: 4096,
            compressed: true,
            policy,
            ..TableOptions::default()
        },
        base_rows(rows),
    )
    .unwrap();
    db
}

/// The update workload: scattered single-row updates plus a stripe of
/// deletes — enough delta for the checkpoint's fold to be non-trivial.
fn apply_updates(db: &Database, rows: u64, updates: u64) {
    for u in 0..updates as i64 {
        let key = (u * 7919) % rows as i64;
        let mut txn = db.begin();
        let n = txn
            .update_where("t", col(0).eq(lit(key)), vec![(1, lit(-u))])
            .unwrap();
        assert_eq!(n, 1);
        txn.commit().unwrap();
    }
    let mut txn = db.begin();
    txn.delete_where("t", col(0).lt(lit(64i64))).unwrap();
    txn.commit().unwrap();
}

fn main() {
    let rows = env_u64("PDT_BENCH_ROWS", 200_000);
    let updates = env_u64("PDT_BENCH_COLD_UPDATES", 2_000);
    let bw = env_f64("PDT_BENCH_COLD_BW", 150.0e6);

    println!(
        "fig23: cold start, {rows} rows, {updates} update commits, \
         modelled disk bandwidth {:.0} MB/s",
        bw / 1e6
    );
    let mut json = BenchJson::new("fig23");
    for policy in ALL_POLICIES {
        let dir = std::env::temp_dir().join(format!("pdt_fig23_{policy:?}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let img_wal = dir.join("img.wal");
        let img_dir = dir.join("images");
        let replay_wal = dir.join("replay.wal");

        // identical workload, divergent durability strategies
        {
            let db = open(&img_wal, Some(&img_dir), policy, rows);
            apply_updates(&db, rows, updates);
            assert!(db.checkpoint("t").unwrap(), "delta must fold");
        }
        {
            let db = open(&replay_wal, None, policy, rows);
            apply_updates(&db, rows, updates);
        }

        // cold start A: images + WAL tail
        let db = open(&img_wal, Some(&img_dir), policy, rows);
        let before = db.io().stats();
        let t0 = Instant::now();
        let replayed = db.recover_from(&img_wal).unwrap();
        let image_secs = t0.elapsed().as_secs_f64();
        let image_io = db.io().stats().since(&before);

        // cold start B: full WAL replay
        let db_replay = open(&replay_wal, None, policy, rows);
        let t0 = Instant::now();
        let replayed_full = db_replay.recover_from(&replay_wal).unwrap();
        let replay_secs = t0.elapsed().as_secs_f64();

        println!("{policy:?}:");
        println!(
            "  image cold start:  {:.1} ms, last seq {replayed}, \
             {} image blocks / {} KiB read (≈{:.1} ms at disk bandwidth)",
            image_secs * 1e3,
            image_io.blocks_read,
            image_io.bytes_read / 1024,
            image_io.transfer_secs(bw) * 1e3,
        );
        println!(
            "  replay cold start: {:.1} ms, last seq {replayed_full} \
             (every commit re-applied)",
            replay_secs * 1e3
        );

        // selective range scan on the recovered clean table: the zone map
        // must confine I/O to the blocks intersecting the range
        let view = db.read_view();
        let full = db.io().stats();
        let mut scan = view.scan_with("t", ScanSpec::cols(vec![0, 1, 2])).unwrap();
        let total = exec::run_to_rows(&mut scan).len();
        let full = db.io().stats().since(&full);
        let lo = (rows as i64 * 3) / 4;
        let sel = db.io().stats();
        let mut scan = view
            .scan_with(
                "t",
                ScanSpec::cols(vec![0, 1, 2]).bounds(exec::ScanBounds {
                    lo: Some(vec![Value::Int(lo)]),
                    hi: Some(vec![Value::Int(lo + 999)]),
                }),
            )
            .unwrap();
        let hits = exec::run_to_rows(&mut scan)
            .iter()
            .filter(|r| (lo..lo + 1000).contains(&r[0].as_int()))
            .count();
        let sel = db.io().stats().since(&sel);
        println!(
            "  range scan [{lo}, {}]: {hits} of {total} rows, \
             {} of {} blocks / {} of {} KiB read (zone-map skipping)",
            lo + 999,
            sel.blocks_read,
            full.blocks_read,
            sel.bytes_read / 1024,
            full.bytes_read / 1024,
        );
        json.row(&[
            ("policy", format!("{policy:?}").into()),
            ("image_ms", (image_secs * 1e3).into()),
            ("image_blocks_read", image_io.blocks_read.into()),
            ("image_kib_read", (image_io.bytes_read / 1024).into()),
            (
                "image_transfer_ms",
                (image_io.transfer_secs(bw) * 1e3).into(),
            ),
            ("replay_ms", (replay_secs * 1e3).into()),
            ("range_hits", hits.into()),
            ("range_blocks_read", sel.blocks_read.into()),
            ("full_blocks_read", full.blocks_read.into()),
            ("range_kib_read", (sel.bytes_read / 1024).into()),
            ("full_kib_read", (full.bytes_read / 1024).into()),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }
    json.finish();
}
