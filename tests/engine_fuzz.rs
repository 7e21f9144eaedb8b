//! Randomized engine-level cross-validation through the differential
//! harness: the same logical update workload applied through the one
//! `DeltaStore`-backed transactional API to a PDT-, a VDT- and a
//! row-store-maintained database must always produce the same visible
//! image as the executable specification `pdt::naive::NaiveImage` —
//! across interleaved flushes, *real* checkpoints of every structure,
//! sort-key rewrites, duplicate-key rejections, and (in the WAL-backed
//! variant) crashes recovered by replaying the log into fresh instances.

use columnar::{Schema, Tuple, Value, ValueType};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use testkit::DiffHarness;

#[derive(Debug, Clone)]
enum Action {
    Insert {
        key: i64,
        val: i64,
    },
    Delete {
        pick: usize,
    },
    Modify {
        pick: usize,
        val: i64,
    },
    /// Sort-key rewrite: the engines turn this into delete + insert; may
    /// collide with an existing key, which every backend must reject.
    ModifyKey {
        pick: usize,
        key: i64,
    },
    Flush,
    Checkpoint,
    /// Drop all databases and rebuild them from base image + WAL replay
    /// (WAL-backed variant only).
    Recover,
}

fn action_strategy(with_recovery: bool) -> BoxedStrategy<Action> {
    let base = prop_oneof![
        5 => (0i64..2000, any::<i64>()).prop_map(|(key, val)| Action::Insert { key, val }),
        4 => any::<usize>().prop_map(|pick| Action::Delete { pick }),
        4 => (any::<usize>(), any::<i64>()).prop_map(|(pick, val)| Action::Modify { pick, val }),
        2 => (any::<usize>(), 0i64..2000).prop_map(|(pick, key)| Action::ModifyKey { pick, key }),
        1 => Just(Action::Flush),
        1 => Just(Action::Checkpoint),
    ];
    if with_recovery {
        prop_oneof![
            17 => base,
            2 => Just(Action::Recover),
        ]
        .boxed()
    } else {
        base.boxed()
    }
}

fn schema() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)])
}

fn base_rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
        .collect()
}

/// Apply one action through the harness (which asserts cross-backend
/// agreement after every step). `Recover` only appears in workloads drawn
/// from `action_strategy(true)`, which pair with a WAL-backed harness.
fn apply(h: &mut DiffHarness, action: &Action) {
    match action {
        Action::Insert { key, val } => {
            h.insert(vec![Value::Int(*key), Value::Int(*val)]);
        }
        Action::Delete { pick } => {
            if !h.model().is_empty() {
                let rid = pick % h.model().len();
                h.delete(rid);
            }
        }
        Action::Modify { pick, val } => {
            if !h.model().is_empty() {
                let rid = pick % h.model().len();
                h.modify(rid, 1, Value::Int(*val));
            }
        }
        Action::ModifyKey { pick, key } => {
            if !h.model().is_empty() {
                let rid = pick % h.model().len();
                h.modify(rid, 0, Value::Int(*key));
            }
        }
        Action::Flush => h.flush(),
        Action::Checkpoint => h.checkpoint(),
        Action::Recover => h.crash_recover(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All three update structures, driven through identical DbTxn calls,
    /// must track the model exactly — including across real checkpoints,
    /// which each database performs on its own stable image.
    #[test]
    fn all_stores_track_naive_model(
        actions in prop::collection::vec(action_strategy(false), 1..60),
        n in 1i64..40,
    ) {
        let mut h = DiffHarness::new("t", schema(), vec![0], base_rows(n), 16);
        for action in &actions {
            apply(&mut h, action);
        }
        // final checkpoint: the clean scan of every database equals the model
        h.checkpoint();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// WAL-backed variant: at random points the databases are dropped and
    /// rebuilt from base image + WAL replay — recovered state must agree
    /// across all three structures and with the model. Checkpoints rotate
    /// the logs (truncation), so recovery is exercised against both fresh
    /// and rotated logs.
    #[test]
    fn all_stores_agree_after_crash_recovery(
        actions in prop::collection::vec(action_strategy(true), 1..40),
        n in 1i64..30,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pdt-fuzz-recovery-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let mut h = DiffHarness::with_wal(dir.clone(), "t", schema(), vec![0], base_rows(n), 16);
        for action in &actions {
            apply(&mut h, action);
        }
        // a final crash: everything committed so far must be recoverable
        h.crash_recover();
        drop(h);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
