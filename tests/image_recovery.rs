//! Image-based recovery must restore exactly the live image — across
//! every update policy, with and without range partitioning, and across a
//! crash landing *between* an image publish and its WAL checkpoint marker.
//!
//! A checkpoint folds committed history into a fresh stable image,
//! persists it, and appends a marker that stops replay at the pinned
//! sequence: the folded commits are in that image and nowhere else. The
//! differential harness ([`DiffHarness::with_wal`]) never rotates its
//! recovery base — recovery gets the original bulk-load rows plus the
//! WAL, and everything a checkpoint folded must come back from the
//! compressed images the checkpoint persisted. Agreement with the model
//! is exactly the acceptance criterion. A marker whose image is gone is a
//! `Corrupt` error, never a recovery that silently drops its commits.

use columnar::TableMeta;
use columnar::{Schema, Tuple, Value, ValueType};
use engine::{Database, MaintainTarget, ScanSpec, TableOptions, ALL_POLICIES};
use testkit::DiffHarness;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("v", ValueType::Int),
        ("s", ValueType::Str),
    ])
}

fn base_rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            vec![
                Value::Int(i * 10),
                Value::Int(i),
                Value::Str(format!("r{i}")),
            ]
        })
        .collect()
}

fn storage_harness(test: &str, partitions: usize) -> DiffHarness {
    let dir = std::env::temp_dir().join(format!("pdt_img_{test}_{}", std::process::id()));
    let h = DiffHarness::with_wal(dir, "t", schema(), vec![0], base_rows(48), 8);
    if partitions > 1 {
        h.with_partitions(partitions)
    } else {
        h
    }
}

/// Drive a mixed workload with interleaved checkpoints (each folding
/// live history into a persisted image) and mid-workload crashes.
fn checkpointed_workload(h: &mut DiffHarness) {
    h.insert(vec![Value::Int(5), Value::Int(100), Value::Str("a".into())]);
    h.delete(3);
    h.modify(7, 1, Value::Int(-7));
    h.checkpoint(); // folds the above into the persisted image
    h.insert(vec![
        Value::Int(255),
        Value::Int(200),
        Value::Str("b".into()),
    ]);
    h.delete_rids(&[0, 11, 12]);
    h.crash_recover(); // image + replay of the post-checkpoint tail
    h.update_col(&[4, 9], 1, &[Value::Int(41), Value::Int(42)]);
    h.modify(2, 0, Value::Int(7)); // sort-key rewrite (delete + insert)
    h.checkpoint(); // second image generation supersedes the first
    h.insert(vec![
        Value::Int(461),
        Value::Int(300),
        Value::Str("c".into()),
    ]);
    h.crash_recover();
    h.flush();
    h.crash_recover(); // recovery right after a flush-only step
                       // insert-then-delete churn nets out: the row store's checkpoint retires
                       // its run history but has no new image to publish, and must not
                       // supersede the generation recovery restarts from
    h.insert(vec![Value::Int(463), Value::Int(0), Value::Str("d".into())]);
    let churned = h
        .model()
        .rows()
        .iter()
        .position(|r| r[0] == Value::Int(463))
        .unwrap();
    h.delete(churned);
    h.checkpoint();
    h.crash_recover();
}

#[test]
fn image_recovery_matches_wal_replay_recovery() {
    let mut h = storage_harness("diff", 1);
    checkpointed_workload(&mut h);
}

#[test]
fn image_recovery_matches_across_partitions() {
    let mut h = storage_harness("diff_parts", 3);
    checkpointed_workload(&mut h);
}

/// A crash between the image publish (manifest swapped) and the WAL
/// checkpoint marker: the manifest's newest entry runs ahead of the
/// durable marker, and recovery must fall back to the *previous* image
/// generation plus WAL replay — silently adopting the ahead-of-marker
/// image would resurrect a checkpoint that never committed.
#[test]
fn crash_between_image_publish_and_marker_recovers_prior_state() {
    let mut h = storage_harness("crash_window", 1);
    h.insert(vec![Value::Int(5), Value::Int(100), Value::Str("a".into())]);
    h.checkpoint(); // durable image generation #1
    h.delete(9);
    h.insert(vec![Value::Int(333), Value::Int(1), Value::Str("w".into())]);
    h.crash_before_marker(None); // generation #2 published, marker lost
    h.crash_recover(); // must load generation #1 and replay the tail
                       // the recovered databases must still checkpoint and recover cleanly
    h.modify(1, 1, Value::Int(-1));
    h.checkpoint();
    h.crash_recover();
}

#[test]
fn crash_window_straddling_partitions_recovers() {
    let mut h = storage_harness("crash_window_parts", 3);
    h.delete_rids(&[2, 17, 40]);
    h.checkpoint();
    h.insert(vec![Value::Int(481), Value::Int(9), Value::Str("t".into())]);
    h.delete(5);
    h.crash_before_marker(None);
    h.crash_recover();
    h.checkpoint();
    h.crash_recover();
}

/// A restart reads the compressed images instead of replaying folded WAL
/// history: after `Database::with_wal`, a commit and a checkpoint,
/// recovering into a fresh process from the original rows must serve the
/// checkpointed rows from the image beside the log (the WAL's covered
/// records are skipped), and the bytes charged to the recovery
/// `IoTracker` must be the image's compressed blocks.
#[test]
fn restart_under_with_wal_serves_checkpointed_state_from_images() {
    for policy in ALL_POLICIES {
        let dir =
            std::env::temp_dir().join(format!("pdt_img_restart_{policy:?}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("db.wal");
        let make = || {
            let db = Database::with_wal(&wal).unwrap();
            db.create_table(
                TableMeta::new("t", schema(), vec![0]),
                TableOptions {
                    block_rows: 8,
                    policy,
                    ..TableOptions::default()
                },
                base_rows(48),
            )
            .unwrap();
            db
        };
        let want = {
            let db = make();
            let mut txn = db.begin();
            txn.insert(
                "t",
                vec![Value::Int(5), Value::Int(9), Value::Str("x".into())],
            )
            .unwrap();
            txn.delete_rids("t", &[20, 21]).unwrap();
            txn.commit().unwrap();
            assert!(db.checkpoint("t").unwrap(), "delta must fold");
            let view = db.read_view();
            exec::run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1, 2])).unwrap())
        };
        // fresh process: recovery must not need the folded history
        let db = make();
        let before = db.io().stats();
        db.recover_from(&wal).unwrap();
        let recovered = db.io().stats().since(&before);
        assert!(
            recovered.blocks_read > 0,
            "{policy:?}: a restart must charge the image's compressed blocks"
        );
        let view = db.read_view();
        let got =
            exec::run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1, 2])).unwrap());
        assert_eq!(got, want, "{policy:?}: the restart diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fresh log over an image directory an earlier log populated: the
/// earlier log's higher-sequence manifest entries must not prune the new
/// log's own images as it publishes them, or recovering the new log finds
/// its marker's image gone.
#[test]
fn a_fresh_log_keeps_its_images_over_an_earlier_logs_directory() {
    for policy in ALL_POLICIES {
        let dir = std::env::temp_dir().join(format!(
            "pdt_img_fresh_log_{policy:?}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("db.wal");
        let make = || {
            let db = Database::with_wal(&wal).unwrap();
            let opts = TableOptions {
                block_rows: 8,
                policy,
                ..TableOptions::default()
            };
            db.create_table(TableMeta::new("t", schema(), vec![0]), opts, base_rows(48))
                .unwrap();
            db
        };
        let commit_and_checkpoint = |db: &Database, k: i64| {
            let mut txn = db.begin();
            txn.insert(
                "t",
                vec![Value::Int(k), Value::Int(k), Value::Str("n".into())],
            )
            .unwrap();
            txn.commit().unwrap();
            assert!(db.checkpoint("t").unwrap(), "{policy:?}: delta must fold");
        };
        {
            let db = make();
            for k in [5, 15, 25] {
                commit_and_checkpoint(&db, k);
            }
        }
        // the log goes, its images stay
        std::fs::remove_file(&wal).unwrap();
        let want = {
            let db = make();
            commit_and_checkpoint(&db, 35);
            let view = db.read_view();
            exec::run_to_rows(&mut view.scan_with("t", ScanSpec::all()).unwrap())
        };
        let db = make();
        db.recover_from(&wal)
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        let view = db.read_view();
        let got = exec::run_to_rows(&mut view.scan_with("t", ScanSpec::all()).unwrap());
        assert_eq!(got, want, "{policy:?}: the restart diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint marker says its commits live in its image alone: with the
/// image directory gone, recovery must fail with a `Corrupt` error naming
/// the image — not return `Ok` without the folded commit. A database
/// without an image store refuses a log with markers outright.
#[test]
fn a_marker_without_its_image_fails_recovery() {
    use columnar::ColumnarError;
    use engine::DbError;
    for policy in ALL_POLICIES {
        let dir =
            std::env::temp_dir().join(format!("pdt_img_missing_{policy:?}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (wal, images) = (dir.join("t.wal"), dir.join("images"));
        let create = |db: &Database| {
            let opts = TableOptions::default().with_policy(policy);
            db.create_table(TableMeta::new("t", schema(), vec![0]), opts, base_rows(16))
                .unwrap();
        };
        let commit = |db: &Database, k: i64| {
            let mut txn = db.begin();
            txn.insert(
                "t",
                vec![Value::Int(k), Value::Int(k), Value::Str("m".into())],
            )
            .unwrap();
            txn.commit().unwrap();
        };
        {
            let db = Database::with_storage(&wal, &images).unwrap();
            create(&db);
            commit(&db, 5);
            assert!(db.checkpoint("t").unwrap(), "{policy:?}");
            commit(&db, 7);
        }
        std::fs::remove_dir_all(&images).unwrap();
        let db = Database::with_storage(&wal, &images).unwrap();
        create(&db);
        let err = db.recover_from(&wal).unwrap_err();
        assert!(
            matches!(&err, DbError::Storage(ColumnarError::Corrupt(m))
                if m == "table t partition 0, image at seq 1: the manifest holds no such image"),
            "{policy:?}: {err}"
        );
        let db = Database::new();
        create(&db);
        let err = db.recover_from(&wal).unwrap_err();
        assert!(
            matches!(&err, DbError::Io(e) if e.kind() == std::io::ErrorKind::InvalidInput),
            "{policy:?}: {err}"
        );
        assert!(
            err.to_string().contains("has no image store"),
            "{policy:?}: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A log is only replayable into the structure that wrote it: a PDT log
/// carries positional modify entries a value-addressed store has no way to
/// apply, and a log written for another schema carries payloads of the
/// wrong width. Both must come back from `recover_from` as errors — like
/// an unknown table or partition does — never take the process down.
#[test]
fn recovering_a_log_that_does_not_fit_the_table_is_an_error() {
    use engine::{DbError, UpdatePolicy};
    let dir = std::env::temp_dir().join(format!("pdt_img_misfit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let make = |wal: &std::path::Path, schema: Schema, policy, rows| {
        let db = Database::with_wal(wal).unwrap();
        let opts = TableOptions::default().with_policy(policy);
        db.create_table(TableMeta::new("t", schema, vec![0]), opts, rows)
            .unwrap();
        db
    };

    // a PDT-written log with a modify entry
    let pdt_wal = dir.join("pdt.wal");
    {
        let db = make(&pdt_wal, schema(), UpdatePolicy::Pdt, base_rows(16));
        let mut txn = db.begin();
        txn.update_col("t", &[3], 1, columnar::ColumnVec::Int(vec![-3]))
            .unwrap();
        txn.commit().unwrap();
    }
    // a value-store log of three-wide tuples
    let wide_wal = dir.join("wide.wal");
    {
        let db = make(&wide_wal, schema(), UpdatePolicy::Vdt, base_rows(16));
        let mut txn = db.begin();
        let row = |k: i64| vec![Value::Int(k), Value::Int(k), Value::Str("w".into())];
        txn.append(
            "t",
            exec::Batch::from_owned_rows(&schema().types(), vec![row(1), row(2), row(3)]),
        )
        .unwrap();
        txn.commit().unwrap();
    }
    // a value-store log whose modifies flattened to delete + insert pairs,
    // all at SID 0: no (SID, RID) order a PDT could have produced
    let keyed_wal = dir.join("keyed.wal");
    {
        let db = make(&keyed_wal, schema(), UpdatePolicy::RowStore, base_rows(16));
        let mut txn = db.begin();
        txn.update_col("t", &[3, 4], 1, columnar::ColumnVec::Int(vec![-3, -4]))
            .unwrap();
        txn.commit().unwrap();
    }
    let narrow = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
    // as wide as `schema()`, but column 1 holds strings
    let retyped = Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("v", ValueType::Str),
        ("s", ValueType::Str),
    ]);
    let misfit = |policy, schema: Schema, rows, wal: &std::path::Path, detail: &str| {
        let db = make(&dir.join("unused.wal"), schema, policy, rows);
        let err = db.recover_from(wal).unwrap_err();
        assert!(
            matches!(&err, DbError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData),
            "{policy:?}: {err}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("WAL does not fit table t") && msg.contains(detail),
            "{policy:?}: {err}"
        );
    };
    for policy in [UpdatePolicy::Vdt, UpdatePolicy::RowStore] {
        misfit(policy, schema(), base_rows(16), &pdt_wal, "modify entry");
        misfit(policy, narrow.clone(), vec![], &wide_wal, "9 values");
    }
    misfit(
        UpdatePolicy::Pdt,
        schema(),
        base_rows(16),
        &keyed_wal,
        "negative RID",
    );
    misfit(UpdatePolicy::Pdt, narrow, vec![], &wide_wal, "9 values");
    // the right width is not enough: the structures check types in debug
    // builds only, so release recovery must
    for policy in ALL_POLICIES {
        misfit(policy, retyped.clone(), vec![], &wide_wal, "column");
    }
    // a log whose commit record names a table this database does not have
    let db = Database::with_wal(&dir.join("unused.wal")).unwrap();
    db.create_table(
        TableMeta::new("other", schema(), vec![0]),
        TableOptions::default(),
        base_rows(16),
    )
    .unwrap();
    let err = db.recover_from(&pdt_wal).unwrap_err();
    assert!(
        matches!(&err, DbError::UnknownTable(t) if t == "t"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The script of [`value_store_logs_are_interchangeable`]: every statement
/// kind the key-addressed log format encodes, around a range compaction
/// whose marker carries a residual.
fn interchange_script(db: &Database) {
    use testkit::key_eq_pred;
    let commit = |stmt: &dyn Fn(&mut engine::DbTxn)| {
        let mut txn = db.begin();
        stmt(&mut txn);
        txn.commit().unwrap();
    };
    let row = |k: i64, s: &str| vec![Value::Int(k), Value::Int(-k), Value::Str(s.into())];
    commit(&|txn| {
        let rows = vec![row(5, "a"), row(125, "b"), row(471, "c"), row(999, "d")];
        txn.append("t", exec::Batch::from_owned_rows(&schema().types(), rows))
            .unwrap();
    });
    commit(&|txn| {
        txn.update_col("t", &[2, 30], 1, columnar::ColumnVec::Int(vec![21, 301]))
            .unwrap();
    });
    commit(&|txn| {
        txn.delete_rids("t", &[7, 8, 40]).unwrap();
    });
    let t = db.table("t").unwrap();
    let last = *t.partitions().last().unwrap();
    last.maintain(MaintainTarget::Blocks(0, 1))
        .unwrap()
        .unwrap();
    // a sort-key rewrite (delete + insert), then more of each kind on top
    // of the compacted image
    commit(&|txn| {
        let hit = txn
            .update_where(
                "t",
                key_eq_pred(&[0], &[Value::Int(100)]),
                vec![(0, exec::expr::lit(Value::Int(101)))],
            )
            .unwrap();
        assert_eq!(hit, 1);
    });
    commit(&|txn| {
        txn.append(
            "t",
            exec::Batch::from_owned_rows(&schema().types(), vec![row(7, "e")]),
        )
        .unwrap();
        txn.delete_rids("t", &[0]).unwrap();
        txn.update_col("t", &[1, 2], 2, {
            let mut strs = columnar::ColumnVec::new(ValueType::Str);
            strs.push(&Value::Str("x".into()));
            strs.push(&Value::Str("y".into()));
            strs
        })
        .unwrap();
    });
}

/// The value stores' log is *the shared key-addressed format*: what a
/// `Vdt` table logged — commits, a compaction marker with its residual,
/// the images it points at — recovers into a `RowStore` table of the same
/// schema to the same image, and the other way round, partitioned and not.
#[test]
fn value_store_logs_are_interchangeable() {
    use engine::{PartitionSpec, UpdatePolicy};
    for partitions in [1, 3] {
        for (writer, reader) in [
            (UpdatePolicy::Vdt, UpdatePolicy::RowStore),
            (UpdatePolicy::RowStore, UpdatePolicy::Vdt),
        ] {
            let dir = std::env::temp_dir().join(format!(
                "pdt_img_interchange_{writer:?}_{partitions}_{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let (wal, images) = (dir.join("t.wal"), dir.join("images"));
            let open = |policy| {
                let db = Database::with_storage(&wal, &images).unwrap();
                let opts = TableOptions {
                    block_rows: 8,
                    policy,
                    partitions: PartitionSpec::Count(partitions),
                    ..TableOptions::default()
                };
                db.create_table(TableMeta::new("t", schema(), vec![0]), opts, base_rows(48))
                    .unwrap();
                db
            };
            let image = |db: &Database| {
                let view = db.read_view();
                let rows = exec::run_to_rows(&mut view.scan_with("t", ScanSpec::all()).unwrap());
                rows
            };
            let want = {
                let db = open(writer);
                interchange_script(&db);
                image(&db)
            };
            let db = open(reader);
            db.recover_from(&wal).unwrap();
            assert_eq!(
                image(&db),
                want,
                "{writer:?} log into a {reader:?} table, {partitions} partition(s)"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
