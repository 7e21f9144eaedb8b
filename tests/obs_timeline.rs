//! Lifecycle timelines reconstructed from drained trace events — the
//! tentpole acceptance tests for the observability layer.
//!
//! With tracing enabled, the write path must leave a commit →
//! wal.enqueue → wal.flush_window → wal.durable trail whose timestamps
//! and sequence tags reconstruct the group-commit protocol, and every
//! checkpoint / compaction must leave a pin → merge → install triple
//! (same sequence, ordered timestamps, range tags on compaction) — for
//! all three update policies. Recovery leaves per-partition
//! wal.replay / image.adopt events, and every DML statement says what its
//! position resolution found and decoded (dml.resolve).
//!
//! The trace layer is process-global, so every test here serializes on
//! one mutex and drains before and after its traced window.

use columnar::{Schema, TableMeta, Tuple, Value, ValueType};
use engine::{Database, MaintainTarget, TableOptions, ALL_POLICIES};
use obs::{TraceEvent, TraceKind};
use std::path::PathBuf;
use std::sync::Mutex;

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn schema() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)])
}

fn base_rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| vec![Value::Int(i * 2), Value::Int(i)])
        .collect()
}

/// A test's own scratch directory, removed with everything in it when the
/// test ends (passing or not).
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("pdt_obs_timeline_{test}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn join(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `f` with tracing enabled and return the decoded events it emitted.
fn traced(f: impl FnOnce()) -> Vec<TraceEvent> {
    obs::trace::drain();
    obs::trace::set_enabled(true);
    f();
    obs::trace::set_enabled(false);
    obs::trace::drain()
        .iter()
        .filter_map(obs::trace::decode)
        .collect()
}

fn commit_update(db: &Database, table: &str, k: i64) {
    let mut txn = db.begin();
    txn.insert(table, vec![Value::Int(k), Value::Int(-k)])
        .unwrap();
    txn.commit().unwrap();
}

#[test]
fn commit_flush_durable_timeline() {
    let _g = serial();
    let dir = Scratch::new("commit");
    let wal = dir.join("commit_timeline.wal");
    let db = Database::with_wal(&wal).unwrap();
    db.create_table(
        TableMeta::new("t_wal", schema(), vec![0]),
        TableOptions::default(),
        base_rows(64),
    )
    .unwrap();

    let evs = traced(|| commit_update(&db, "t_wal", 1001));

    let commit = evs
        .iter()
        .find(|e| e.kind == TraceKind::Commit)
        .expect("commit event");
    assert!(commit.seq > 0, "commit carries the allocated sequence");
    assert_eq!(commit.a, 1, "one (table, partition) touched");
    assert!(commit.b >= 1, "at least one WAL entry");
    assert!(commit.dur_ns > 0, "commit span measures wall time");

    let enqueue = evs
        .iter()
        .find(|e| e.kind == TraceKind::WalEnqueue && e.seq == commit.seq)
        .expect("wal.enqueue with the commit's sequence");
    let window = evs
        .iter()
        .find(|e| e.kind == TraceKind::WalFlushWindow)
        .expect("wal.flush_window span");
    let durable = evs
        .iter()
        .find(|e| e.kind == TraceKind::WalDurable && e.a == enqueue.a)
        .expect("wal.durable wait for the enqueue ticket");

    // The protocol order: the record is enqueued, a leader opens a flush
    // window covering it, and the durable wait returns after the window
    // closes. Spans stamp their *end*-ordering via ts + dur.
    assert!(
        enqueue.ts_ns <= window.ts_ns + window.dur_ns,
        "enqueue precedes window close"
    );
    assert!(window.a >= 1, "window flushed >= 1 record");
    assert!(
        durable.ts_ns + durable.dur_ns >= window.ts_ns,
        "durable ack resolves no earlier than the window that wrote it"
    );
    assert!(
        durable.seq >= enqueue.a,
        "durable high-water covers the ticket"
    );
    assert!(
        commit.ts_ns + commit.dur_ns >= durable.ts_ns,
        "commit acknowledges only after the durable wait"
    );
}

/// One pin → merge → install triple per policy, with one shared sequence
/// and strictly ordered phases.
fn assert_triple(
    evs: &[TraceEvent],
    table: &str,
    pin: TraceKind,
    merge: TraceKind,
    install: TraceKind,
) {
    let by = |k: TraceKind| {
        evs.iter()
            .find(|e| e.kind == k && e.table.as_deref() == Some(table))
            .unwrap_or_else(|| panic!("{} event for {table}", k.name()))
    };
    let (p, m, i) = (by(pin), by(merge), by(install));
    assert_eq!(p.part, Some(0));
    assert_eq!(p.seq, m.seq, "merge folds the pinned cut");
    assert_eq!(m.seq, i.seq, "install publishes the merged cut");
    assert!(m.dur_ns > 0, "merge is a span");
    assert!(p.ts_ns <= m.ts_ns, "pin before merge");
    assert!(
        m.ts_ns + m.dur_ns <= i.ts_ns,
        "install after the merge completes"
    );
}

#[test]
fn checkpoint_pin_merge_install_all_policies() {
    let _g = serial();
    for policy in ALL_POLICIES {
        let table = format!("t_ckpt_{policy:?}");
        let db = Database::new();
        db.create_table(
            TableMeta::new(&table, schema(), vec![0]),
            TableOptions::default().with_policy(policy),
            base_rows(128),
        )
        .unwrap();
        commit_update(&db, &table, 5001);

        let evs = traced(|| {
            assert!(db.checkpoint(&table).unwrap(), "non-empty delta folds");
        });
        assert_triple(
            &evs,
            &table,
            TraceKind::CheckpointPin,
            TraceKind::CheckpointMerge,
            TraceKind::CheckpointInstall,
        );
    }
}

/// A checkpoint's merge span has two stages on the registry: the fold and
/// the image publish, one observation each, adding up to no more than the
/// span itself.
#[test]
fn checkpoint_stages_sum_inside_the_merge_span() {
    let _g = serial();
    let dir = Scratch::new("stages");
    let (wal, images) = (dir.join("stages.wal"), dir.join("stages_images"));
    let db = Database::with_storage(&wal, &images).unwrap();
    db.create_table(
        TableMeta::new("t_stages", schema(), vec![0]),
        TableOptions::default(),
        base_rows(128),
    )
    .unwrap();
    commit_update(&db, "t_stages", 5001);
    let evs = traced(|| assert!(db.checkpoint("t_stages").unwrap()));
    let merge = evs
        .iter()
        .find(|e| e.kind == TraceKind::CheckpointMerge)
        .expect("checkpoint.merge span");
    let m = db.metrics();
    let stage = |name: &str| match &m
        .get_labeled(name, &[("table", "t_stages"), ("partition", "0")])
        .unwrap_or_else(|| panic!("{name} registered"))
        .value
    {
        obs::metrics::MetricValue::Histogram(h) => h.clone(),
        other => panic!("{name} is a histogram, got {other:?}"),
    };
    let (fold, publish) = (
        stage("maintenance.fold_us"),
        stage("maintenance.publish_us"),
    );
    assert_eq!((fold.count, publish.count), (1, 1));
    assert!(
        (fold.sum + publish.sum) * 1000 <= merge.dur_ns,
        "fold {} µs + publish {} µs inside the {} ns merge span",
        fold.sum,
        publish.sum,
        merge.dur_ns
    );
}

#[test]
fn compaction_pin_merge_install_all_policies() {
    let _g = serial();
    for policy in ALL_POLICIES {
        let table = format!("t_cmp_{policy:?}");
        let db = Database::new();
        db.create_table(
            TableMeta::new(&table, schema(), vec![0]),
            TableOptions::default()
                .with_policy(policy)
                .with_block_rows(32),
            base_rows(128), // 4 stable blocks
        )
        .unwrap();
        // one modify inside block 0 so the range [0, 2) has delta to fold
        let mut txn = db.begin();
        txn.update_col(&table, &[10], 1, columnar::ColumnVec::Int(vec![-1]))
            .unwrap();
        txn.commit().unwrap();

        let evs = traced(|| {
            db.table(&table).unwrap().partitions()[0]
                .maintain(MaintainTarget::Blocks(0, 2))
                .unwrap()
                .expect("delta pinned");
        });
        assert_triple(
            &evs,
            &table,
            TraceKind::CompactionPin,
            TraceKind::CompactionMerge,
            TraceKind::CompactionInstall,
        );
        // compaction events additionally tag the block range
        for e in evs
            .iter()
            .filter(|e| e.table.as_deref() == Some(table.as_str()))
        {
            assert_eq!((e.a, e.b), (0, 2), "{} carries [b0, b1)", e.kind.name());
        }
    }
}

#[test]
fn dml_statements_say_what_they_resolved() {
    let _g = serial();
    for policy in ALL_POLICIES {
        let db = Database::new();
        let name = format!("t_dml_{policy:?}");
        db.create_table(
            TableMeta::new(&name, schema(), vec![0]),
            TableOptions::default()
                .with_policy(policy)
                .with_block_rows(8),
            base_rows(64),
        )
        .unwrap();
        commit_update(&db, &name, 41); // a non-empty committed delta
        let mut txn = db.begin();
        let resolve = |f: &mut dyn FnMut()| -> TraceEvent {
            let evs: Vec<TraceEvent> = traced(f)
                .into_iter()
                .filter(|e| e.kind == TraceKind::DmlResolve)
                .collect();
            assert_eq!(evs.len(), 1, "{policy:?}: one resolution per statement");
            assert_eq!(evs[0].table.as_deref(), Some(name.as_str()));
            assert_eq!(evs[0].part, Some(0));
            assert!(evs[0].dur_ns > 0, "{policy:?}: resolution is a span");
            evs[0].clone()
        };
        let update = resolve(&mut || {
            let vals = columnar::ColumnVec::Int(vec![7, 8, 9]);
            txn.update_col(&name, &[3, 30, 60], 1, vals).unwrap();
        });
        let delete = resolve(&mut || {
            txn.delete_rids(&name, &[5, 50]).unwrap();
        });
        let append = resolve(&mut || {
            let rows = [vec![Value::Int(7), Value::Int(0)]];
            txn.append(&name, exec::Batch::from_rows(&schema().types(), &rows))
                .unwrap();
        });
        let pred = resolve(&mut || {
            use exec::expr::{col, lit};
            let n = txn.delete_where(&name, col(0).eq(lit(100i64))).unwrap();
            assert_eq!(n, 1);
        });
        assert_eq!((update.a, delete.a, append.a, pred.a), (3, 2, 1, 1));
        if policy == engine::UpdatePolicy::Pdt {
            // by position: nothing read for an update, the victims' two
            // blocks for a delete, the key's neighbourhood for an append
            assert_eq!((update.b, delete.b), (0, 2), "{policy:?}");
            assert!(append.b >= 1 && append.b <= 3, "{policy:?}: {append:?}");
        } else {
            // by key: every block up to the last victim
            assert!(update.b >= 8 && delete.b >= 7, "{policy:?}");
        }
        assert_eq!(pred.b, 8, "{policy:?}: an unranged victim scan reads all");
        txn.commit().unwrap();
        let m = db.metrics();
        assert_eq!(m.value("db.dml.rids_resolved"), Some(1 + 3 + 2 + 1 + 1));
        assert!(m.value("db.dml.blocks_decoded") >= Some(delete.b + append.b + pred.b));
    }
}

#[test]
fn recovery_replay_emits_per_partition_events() {
    let _g = serial();
    let dir = Scratch::new("recovery");
    let wal = dir.join("recovery_timeline.wal");
    {
        let db = Database::with_wal(&wal).unwrap();
        db.create_table(
            TableMeta::new("t_rec", schema(), vec![0]),
            TableOptions::default(),
            base_rows(32),
        )
        .unwrap();
        commit_update(&db, "t_rec", 9001);
        commit_update(&db, "t_rec", 9003);
    } // crash: drop without checkpoint

    let db = Database::new();
    db.create_table(
        TableMeta::new("t_rec", schema(), vec![0]),
        TableOptions::default(),
        base_rows(32),
    )
    .unwrap();
    let evs = traced(|| {
        let last = db.recover_from(&wal).unwrap();
        assert!(last > 0, "recovered past sequence zero");
    });
    let replay = evs
        .iter()
        .find(|e| e.kind == TraceKind::RecoveryWalReplay)
        .expect("wal replay event");
    assert_eq!(replay.table.as_deref(), Some("t_rec"));
    assert_eq!(replay.part, Some(0));
    assert_eq!(replay.b, 2, "two commits replayed");
    assert!(replay.a >= 2, "at least one entry per commit");
    assert_eq!(db.row_count("t_rec").unwrap(), 34);
}
