//! Background-maintenance stress and regression suite.
//!
//! The paper's layered architecture (§3.3) promises that Write→Read
//! propagation and stable checkpointing run *while queries keep scanning a
//! consistent snapshot*. These tests pin that promise down for all three
//! `DeltaStore` backends:
//!
//! * a deterministic multi-threaded differential stress test — N writer
//!   threads on disjoint key partitions, M scanner threads asserting
//!   snapshot invariants, and the background `MaintenanceScheduler`
//!   flushing/checkpointing under tiny byte budgets — whose final image
//!   must equal the sequential model on every policy (CI runs this in
//!   release mode with a fixed seed);
//! * snapshot stability: a `ReadView` opened before flush/checkpoint
//!   returns byte-identical results after them;
//! * the non-blocking regression: scans **and commits** complete while a
//!   checkpoint's stable rewrite is in flight (under the old design the
//!   commit guard was held across the merge, so this deadlocked);
//! * WAL ordering vs background checkpoints: a commit that lands during
//!   the merge has a sequence above the checkpoint marker and must be
//!   replayed on recovery, while everything the marker covers is skipped;
//! * the flush-vs-commit race: a Write→Read flush landing between a
//!   commit's sequence allocation and its publish must not hide that
//!   commit from the views opened right after it.

use columnar::{Schema, Tuple, Value, ValueType};
use engine::testkit::{run_concurrent_differential, ConcurrentSpec};
use engine::{Database, ScanSpec, TableOptions, UpdatePolicy, ALL_POLICIES};
use exec::expr::{col, lit};
use exec::run_to_rows;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)])
}

fn int_rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
        .collect()
}

fn make_db(policy: UpdatePolicy, n: i64, block_rows: usize) -> Database {
    let db = Database::new();
    db.create_table(
        columnar::TableMeta::new("t", schema(), vec![0]),
        TableOptions::default()
            .with_policy(policy)
            .with_block_rows(block_rows),
        int_rows(n),
    )
    .unwrap();
    db
}

fn image(db: &Database) -> Vec<Tuple> {
    run_to_rows(
        &mut db
            .read_view()
            .scan_with("t", ScanSpec::cols(vec![0, 1]))
            .unwrap(),
    )
}

/// The headline stress test: writers + scanners + background scheduler,
/// fixed seed, all three backends differentially compared against the
/// sequential model. Bounded thread counts keep it deterministic and fast
/// enough for the CI `stress` job.
#[test]
fn concurrent_writers_scanners_and_scheduler_agree_across_backends() {
    let image = run_concurrent_differential(ConcurrentSpec::default());
    assert!(!image.is_empty());
}

/// A second seed with a different shape (more writers, fewer ops) — cheap
/// insurance against a lucky-seed pass.
#[test]
fn concurrent_stress_alternate_seed() {
    let spec = ConcurrentSpec {
        writers: 6,
        scanners: 1,
        ops_per_writer: 30,
        base_rows_per_writer: 8,
        seed: 0xdead_beef,
        block_rows: 8,
    };
    let image = run_concurrent_differential(spec);
    assert!(!image.is_empty());
}

/// Satellite: a `ReadView` opened before maintenance returns byte-identical
/// scan results across a flush and a checkpoint, on every backend.
#[test]
fn read_view_is_stable_across_flush_and_checkpoint() {
    for policy in ALL_POLICIES {
        let db = make_db(policy, 64, 8);
        let mut t = db.begin();
        t.insert("t", vec![Value::Int(15), Value::Int(-1)]).unwrap();
        t.delete_where("t", col(0).eq(lit(300i64))).unwrap();
        t.update_where("t", col(0).eq(lit(40i64)), vec![(1, lit(99i64))])
            .unwrap();
        t.commit().unwrap();

        let view = db.read_view();
        let before = run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1])).unwrap());

        assert!(db.maybe_flush("t", 0).unwrap() || policy != UpdatePolicy::Pdt);
        let after_flush =
            run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1])).unwrap());
        assert_eq!(before, after_flush, "{policy:?}: flush moved an open view");

        assert!(db.checkpoint("t").unwrap(), "{policy:?}");
        let after_ckpt = run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1])).unwrap());
        assert_eq!(
            before, after_ckpt,
            "{policy:?}: checkpoint moved an open view"
        );

        // a fresh view sees the same rows, now from the new stable image
        assert_eq!(image(&db), before, "{policy:?}");
        let clean = run_to_rows(
            &mut db
                .clean_view()
                .scan_with("t", ScanSpec::cols(vec![0, 1]))
                .unwrap(),
        );
        assert_eq!(clean, before, "{policy:?}: checkpointed image differs");
    }
}

/// Satellite regression: the stable rewrite no longer holds the commit
/// guard or the tables lock — opening views, scanning, and committing all
/// complete *during* the merge. Under the pre-maintenance design this test
/// deadlocks (the observer runs while the old critical section would have
/// been held), so a hang here means the critical section regressed.
#[test]
fn scans_and_commits_proceed_during_checkpoint_merge() {
    for policy in ALL_POLICIES {
        let db = make_db(policy, 512, 16);
        let mut t = db.begin();
        t.delete_where("t", col(0).eq(lit(0i64))).unwrap();
        t.commit().unwrap();
        let before = image(&db);

        let mut mid_rows = None;
        let mut mid_commit_seq = None;
        let did = db
            .checkpoint_observed("t", || {
                // a reader opens a view and scans to completion mid-merge
                mid_rows = Some(image(&db));
                // a writer commits mid-merge
                let mut t = db.begin();
                t.insert("t", vec![Value::Int(5), Value::Int(-5)]).unwrap();
                mid_commit_seq = Some(t.commit().unwrap());
            })
            .unwrap();
        assert!(did, "{policy:?}");
        assert_eq!(
            mid_rows.unwrap(),
            before,
            "{policy:?}: mid-merge scan saw a moving image"
        );
        assert!(mid_commit_seq.is_some(), "{policy:?}");

        // after install: the checkpointed image plus the mid-merge commit
        // (key 5 sorts before the first surviving key, 10)
        let mut want = before.clone();
        want.insert(0, vec![Value::Int(5), Value::Int(-5)]);
        assert_eq!(
            image(&db),
            want,
            "{policy:?}: mid-merge commit lost or misplaced by the checkpoint"
        );
        // ... and the mid-merge commit is residual delta, not stable
        let clean = run_to_rows(
            &mut db
                .clean_view()
                .scan_with("t", ScanSpec::cols(vec![0, 1]))
                .unwrap(),
        );
        assert_eq!(
            clean, before,
            "{policy:?}: stable image must not contain the mid-merge commit"
        );
        // a second checkpoint folds the residual
        assert!(db.checkpoint("t").unwrap(), "{policy:?}");
        let clean = run_to_rows(
            &mut db
                .clean_view()
                .scan_with("t", ScanSpec::cols(vec![0, 1]))
                .unwrap(),
        );
        assert_eq!(clean, want, "{policy:?}");
    }
}

/// Regression: the background flush takes the maintenance mutex but not
/// the commit guard, so it can land between a commit's `alloc_seq` and its
/// publish. The PDT layer used to stamp its cached Write-PDT snapshot with
/// the *current* sequence on flush — the in-flight commit's — and the
/// publish that followed did not invalidate it, so every view and
/// transaction opened at that sequence got a snapshot missing the commit,
/// ranked inserts against the wrong image, and the next checkpoint merged
/// an unsorted one (`UnsortedInput` at `sched.drain()`, a few percent of
/// full-suite runs). Forced here through the commit seam, no sleeps.
#[test]
fn flush_between_seq_allocation_and_publish_keeps_the_commit_visible() {
    for policy in ALL_POLICIES {
        let db = make_db(policy, 16, 8);
        let insert = |k: i64, flush_mid_commit: bool| {
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(k), Value::Int(-k)]).unwrap();
            t.commit_observed(|| {
                if flush_mid_commit {
                    // only the PDT store has a write layer to flush
                    let flushed = db.maybe_flush("t", 0).unwrap();
                    assert_eq!(flushed, policy == UpdatePolicy::Pdt, "{policy:?}");
                }
            })
            .unwrap();
        };
        // a first commit, so the mid-commit flush has a write layer to move
        insert(15, false);
        insert(25, true);
        let keys = |rows: &[Tuple]| -> Vec<i64> { rows.iter().map(|r| r[0].as_int()).collect() };
        let mut want = keys(&int_rows(16));
        want.extend([15, 25]);
        want.sort_unstable();
        assert_eq!(
            keys(&image(&db)),
            want,
            "{policy:?}: a view opened at the flushed commit's sequence lost it"
        );
        // a transaction begun at that sequence ranks its insert against the
        // same image; the checkpoint then has to merge a sorted one
        insert(26, false);
        want.insert(want.binary_search(&26).unwrap_err(), 26);
        assert!(db.checkpoint("t").unwrap(), "{policy:?}");
        let clean = run_to_rows(
            &mut db
                .clean_view()
                .scan_with("t", ScanSpec::cols(vec![0, 1]))
                .unwrap(),
        );
        assert_eq!(keys(&clean), want, "{policy:?}: checkpointed image");
    }
}

/// Satellite: WAL ordering vs background checkpoints. A commit that lands
/// during the merge is physically *before* the checkpoint marker in the
/// log but has a higher sequence — recovery from the checkpointed image
/// must replay it (and only it, plus everything after the marker).
#[test]
fn wal_marker_orders_mid_merge_commits_for_recovery() {
    for policy in ALL_POLICIES {
        let dir = std::env::temp_dir().join(format!("maint_wal_{policy:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wal");
        let _ = std::fs::remove_file(&path);

        let db = Database::with_wal(&path).unwrap();
        db.create_table(
            columnar::TableMeta::new("t", schema(), vec![0]),
            TableOptions::default()
                .with_policy(policy)
                .with_block_rows(8),
            int_rows(32),
        )
        .unwrap();

        // two commits the checkpoint will fold
        for k in [11i64, 12] {
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(k), Value::Int(-k)]).unwrap();
            t.commit().unwrap();
        }
        // checkpoint with a commit landing during the merge
        let did = db
            .checkpoint_observed("t", || {
                let mut t = db.begin();
                t.insert("t", vec![Value::Int(13), Value::Int(-13)])
                    .unwrap();
                t.commit().unwrap();
            })
            .unwrap();
        assert!(did, "{policy:?}");
        // the checkpointed stable image — what a real system persists at
        // the marker — and one more commit after the checkpoint
        let marker_image = run_to_rows(
            &mut db
                .clean_view()
                .scan_with("t", ScanSpec::cols(vec![0, 1]))
                .unwrap(),
        );
        {
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(14), Value::Int(-14)])
                .unwrap();
            t.commit().unwrap();
        }
        let live = image(&db);
        assert!(live.iter().any(|r| r[0] == Value::Int(13)));
        drop(db);

        // crash: rebuild from the marker image, replay the log. The two
        // pre-checkpoint commits are covered by the marker (skipped); the
        // mid-merge and post-checkpoint commits are not (replayed).
        let recovered = Database::with_wal(&path).unwrap();
        recovered
            .create_table(
                columnar::TableMeta::new("t", schema(), vec![0]),
                TableOptions::default()
                    .with_policy(policy)
                    .with_block_rows(8),
                marker_image.clone(),
            )
            .unwrap();
        recovered.recover_from(&path).unwrap();
        assert_eq!(
            image(&recovered),
            live,
            "{policy:?}: marker-aware recovery diverged from the live image"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// Lifecycle: the scheduler drives a WAL-backed database; after drain +
/// crash, marker-aware recovery from the final checkpointed image
/// reproduces the live image.
#[test]
fn scheduler_with_wal_survives_crash_recovery() {
    for policy in ALL_POLICIES {
        let dir = std::env::temp_dir().join(format!("maint_sched_wal_{policy:?}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wal");
        let _ = std::fs::remove_file(&path);

        let db = Arc::new(Database::with_wal(&path).unwrap());
        db.create_table(
            columnar::TableMeta::new("t", schema(), vec![0]),
            TableOptions::default()
                .with_policy(policy)
                .with_block_rows(8)
                .with_flush_threshold(0)
                .with_checkpoint_threshold(256),
            int_rows(32),
        )
        .unwrap();
        let sched = engine::MaintenanceScheduler::start(
            db.clone(),
            engine::MaintenanceConfig::with_tick(std::time::Duration::from_millis(1)),
        );
        for i in 0..50i64 {
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(i * 10 + 3), Value::Int(i)])
                .unwrap();
            t.commit().unwrap();
        }
        sched.drain().unwrap();
        assert_eq!(sched.stats().errors, 0, "{:?}", sched.last_error());
        sched.shutdown();
        let live = image(&db);
        // after drain, everything is stable: the clean image is the
        // checkpointed base a recovery would restart from
        let base = run_to_rows(
            &mut db
                .clean_view()
                .scan_with("t", ScanSpec::cols(vec![0, 1]))
                .unwrap(),
        );
        assert_eq!(base, live, "{policy:?}: drain left residual deltas");
        drop(db);

        let recovered = Database::with_wal(&path).unwrap();
        recovered
            .create_table(
                columnar::TableMeta::new("t", schema(), vec![0]),
                TableOptions::default()
                    .with_policy(policy)
                    .with_block_rows(8),
                base,
            )
            .unwrap();
        recovered.recover_from(&path).unwrap();
        assert_eq!(image(&recovered), live, "{policy:?}");
        let _ = std::fs::remove_file(&path);
    }
}
