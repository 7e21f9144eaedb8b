//! Incremental compaction ≡ full checkpoints, differentially.
//!
//! A range-scoped compaction step folds only the delta overlapping a
//! chosen run of stable blocks and rebases the rest — so for any
//! workload, any interleaving of compaction steps, whole-partition
//! checkpoints and crashes must leave every policy's visible image
//! exactly where the executable model says it is. The differential
//! harness runs one database per [`engine::UpdatePolicy`] in lockstep
//! against `NaiveImage`; [`DiffHarness::compact`] clamps a block range
//! per database and verifies agreement after each step, and
//! [`DiffHarness::crash_before_marker`] dies in the crash
//! window between the reuse-image publish and the WAL range marker —
//! the seam recovery has to tolerate without resurrecting an
//! uncommitted compaction.
//!
//! Storage-mode tests never rotate the recovery base: everything a
//! compaction folded must come back through the persisted images (kept
//! blocks by reference, merged blocks inline) plus the range marker's
//! rebased residual replay.
//!
//! The whole-partition checkpoint is the same step over every block, and
//! the suite holds it to that: from one state, a partition's
//! `maintain(MaintainTarget::All)` and `maintain(MaintainTarget::Blocks(0,
//! n_blocks))` must leave byte-identical slices, dictionaries, deltas and
//! logs.

use columnar::{Encoding, Schema, StableTable, Tuple, Value, ValueType};
use engine::MaintainTarget;
use proptest::prelude::*;
use std::path::PathBuf;
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

fn row(k: i64, v: i64) -> Tuple {
    vec![Value::Int(k), Value::Int(v), Value::Str(format!("w{v}"))]
}

fn storage_dir(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pdt_compact_{test}_{}", std::process::id()))
}

fn storage_harness(test: &str, partitions: usize) -> DiffHarness {
    let h = DiffHarness::with_wal(storage_dir(test), "t", schema(), vec![0], base_rows(48), 8);
    if partitions > 1 {
        h.with_partitions(partitions)
    } else {
        h
    }
}

/// Interior, prefix, tail and whole-image compaction steps interleaved
/// with churn and a full checkpoint — every step asserts the merged
/// image against the model across all three policies.
fn compaction_workload(h: &mut DiffHarness) {
    // churn across distinct block ranges of the 6-block base image
    h.insert(row(25, 100)); // block 0
    h.delete(20); // block 3-ish by position
    h.modify(30, 1, Value::Int(-30)); // block 5 by position
    h.insert(row(475, 101)); // append tail
    h.compact(0, 2, 4); // interior: folds only the overlap
    h.insert(row(135, 102));
    h.compact(0, 0, 2); // prefix (lo bound None)
    h.delete(5);
    h.compact(0, 4, 64); // clamped tail: folds trailing inserts
    h.checkpoint(); // whole-partition fold agrees with the model
    h.compact(0, 0, 1); // delta-free partition: pin-less no-op
    h.insert(row(222, 103));
    h.modify(0, 0, Value::Int(1)); // sort-key rewrite (delete + insert)
    h.compact(0, 0, 64); // whole image in one step ≡ checkpoint
}

#[test]
fn compaction_steps_match_full_checkpoints() {
    let mut h = DiffHarness::new("t", schema(), vec![0], base_rows(48), 8);
    compaction_workload(&mut h);
}

#[test]
fn compaction_steps_match_across_partitions() {
    let mut h = DiffHarness::new("t", schema(), vec![0], base_rows(48), 8).with_partitions(3);
    compaction_workload(&mut h);
    // per-partition steps, including partitions the churn never touched
    h.insert(row(3, 200));
    h.insert(row(301, 201));
    h.compact(0, 0, 1);
    h.compact(1, 0, 64);
    h.compact(2, 1, 2);
}

#[test]
fn compaction_survives_crash_recovery() {
    let mut h = storage_harness("recover", 1);
    h.insert(row(25, 100));
    h.delete(9);
    h.compact(0, 2, 4); // range marker + reuse image land durably
    h.insert(row(475, 101));
    h.crash_recover(); // image (kept blocks by reference) + residual + tail
    h.modify(4, 1, Value::Int(-4));
    h.compact(0, 4, 64);
    h.checkpoint(); // full fold on top of compacted generations
    h.crash_recover();
}

#[test]
fn compaction_across_partitions_survives_crash_recovery() {
    let mut h = storage_harness("recover_parts", 3);
    h.insert(row(25, 100)); // partition 0
    h.insert(row(301, 101)); // middle partition
    h.delete(40);
    h.compact(0, 0, 2);
    h.compact(1, 0, 1);
    h.crash_recover(); // per-partition markers replay independently
    h.modify(2, 1, Value::Int(-2));
    h.compact(2, 0, 64);
    h.crash_recover();
}

/// A crash between the compaction's image publish and its WAL range
/// marker: the manifest's newest generation runs ahead of the durable
/// marker, and recovery must fall back to the prior generation plus WAL
/// replay — adopting the ahead-of-marker image would resurrect a
/// compaction that never committed.
#[test]
fn crash_mid_compaction_recovers_prior_state() {
    let mut h = storage_harness("crash_window", 1);
    h.insert(row(25, 100));
    h.compact(0, 2, 64); // durable compacted generation #1
    h.delete(9);
    h.insert(row(333, 101));
    h.crash_before_marker(Some((0, 1, 4))); // generation #2 lost
    h.crash_recover(); // generation #1 + tail replay
    h.modify(1, 1, Value::Int(-1));
    h.compact(0, 0, 3); // the recovered databases compact cleanly
    h.checkpoint();
    h.crash_recover();
}

#[test]
fn crash_mid_compaction_straddling_partitions() {
    let mut h = storage_harness("crash_window_parts", 3);
    h.delete_rids(&[2, 17, 40]);
    h.compact(1, 0, 64); // durable step in the middle partition
    h.insert(row(85, 102)); // partition 0 churn
    h.crash_before_marker(Some((0, 0, 2)));
    h.crash_recover();
    h.checkpoint();
    h.crash_recover();
}

/// Encoded blocks, block geometry and dictionaries of two slices, byte
/// for byte.
fn assert_same_encoding(a: &StableTable, b: &StableTable, context: &str) {
    assert_eq!(a.block_starts(), b.block_starts(), "{context}: geometry");
    assert_eq!(
        a.block_max_keys(),
        b.block_max_keys(),
        "{context}: zone map"
    );
    for c in 0..a.num_columns() {
        let dict = |t: &StableTable| -> Option<Vec<String>> {
            t.column_dict(c)
                .map(|d| d.iter().map(str::to_string).collect())
        };
        assert_eq!(dict(a), dict(b), "{context}: column {c} dictionary");
        let (ba, bb) = (a.column_blocks(c), b.column_blocks(c));
        assert_eq!(ba.len(), bb.len(), "{context}: column {c} block count");
        for (j, (x, y)) in ba.iter().zip(bb).enumerate() {
            assert_eq!(
                (x.len, x.encoding, &x.payload),
                (y.len, y.encoding, &y.payload),
                "{context}: column {c} block {j}"
            );
        }
    }
}

/// From the same state — churn in every partition, out-of-dictionary
/// strings included — one harness checkpoints each partition, the other
/// compacts its range `[0, n_blocks)`. Both must end in the same bytes:
/// slices, dictionaries (rebuilt, so every string block is `GlobalCode`),
/// an empty delta, the log with its markers, and the recovered image.
fn full_range_step_is_the_checkpoint(partitions: usize) {
    let tags = [
        format!("eq_ckpt_{partitions}"),
        format!("eq_full_{partitions}"),
    ];
    let [mut ckpt, mut full] = tags.each_ref().map(|tag| {
        let mut h = storage_harness(tag, partitions);
        h.insert(row(25, 100));
        h.insert(row(301, 101)); // "w…" strings are not in the base dictionary
        h.delete(40);
        h.modify(30, 1, Value::Int(-30));
        h.insert(row(475, 102)); // append tail
        h.compact(0, 1, 2); // a partial step first: mixed per-block encodings
        h.insert(row(27, 103));
        h.modify(2, 0, Value::Int(1)); // sort-key rewrite
        h.flush();
        h
    });
    for ((policy, a), (_, b)) in ckpt.dbs().zip(full.dbs()) {
        let (ta, tb) = (a.table("t").unwrap(), b.table("t").unwrap());
        for (p, (pa, pb)) in ta.partitions().iter().zip(tb.partitions()).enumerate() {
            let context = format!("{policy:?} partition {p}");
            let nb = pb.stable().num_blocks();
            let folded = pa.maintain(MaintainTarget::All).unwrap().is_some();
            let report = pb.maintain(MaintainTarget::Blocks(0, nb)).unwrap();
            assert_eq!(folded, report.is_some(), "{context}: same pin verdict");
            assert!(
                report.is_none_or(|r| r.blocks_reused == 0 && r.blocks_merged == nb as u64),
                "{context}: {report:?}"
            );
            let (sa, sb) = (pa.stable(), pb.stable());
            assert_same_encoding(&sa, &sb, &context);
            if folded {
                assert!(
                    sb.column_blocks(2)
                        .iter()
                        .all(|blk| blk.encoding == Encoding::GlobalCode),
                    "{context}: a full range re-dictionarises every string block"
                );
            }
            assert_eq!(
                pa.delta_bytes(),
                pb.delta_bytes(),
                "{context}: delta footprint"
            );
        }
        let wal =
            |tag: &str| std::fs::read(storage_dir(tag).join(format!("{policy:?}.wal"))).unwrap();
        assert!(
            wal(&tags[0]) == wal(&tags[1]),
            "{policy:?}: commit records and checkpoint markers must be the same bytes"
        );
    }
    for h in [&mut ckpt, &mut full] {
        h.assert_clean_agree("delta fully folded");
        h.crash_recover(); // both recover to the model, hence to each other
    }
}

#[test]
fn full_range_compaction_is_byte_identical_to_checkpoint() {
    full_range_step_is_the_checkpoint(1);
}

#[test]
fn full_range_compaction_is_byte_identical_to_checkpoint_across_partitions() {
    full_range_step_is_the_checkpoint(3);
}

/// A partition created without rows has no block to name: its first
/// maintenance step is the range `[0, 0)`, which folds the append gap —
/// through a block-range step and through `checkpoint` alike.
#[test]
fn zero_block_partitions_fold_through_the_empty_range() {
    let mut h = DiffHarness::with_wal(storage_dir("empty"), "t", schema(), vec![0], vec![], 8);
    h.insert(row(5, 1));
    h.insert(row(3, 2));
    h.compact(0, 0, 0);
    h.assert_clean_agree("first blocks of a block-less table");
    h.crash_recover();
    // a range-partitioned table whose upper partitions start empty
    let mut h = storage_harness("empty_parts", 1)
        .with_split_points(vec![vec![Value::Int(1000)], vec![Value::Int(2000)]]);
    h.insert(row(1500, 3));
    h.insert(row(2500, 4));
    h.compact(1, 0, 64); // clamps to [0, 0)
    h.checkpoint(); // partition 2 takes the same step as a checkpoint
    h.insert(row(1400, 5));
    h.compact(1, 1, 64); // past the one block it now has: the gap alone
    h.crash_recover();
    h.checkpoint();
    h.crash_recover();
}

#[derive(Debug, Clone)]
enum Action {
    Insert(i64, i64),
    DeleteRid(usize),
    UpdateCol(usize, i64),
    Flush,
    Checkpoint,
    /// Compact `[b0, b0 + len)` of partition `p` (clamped by the step).
    Compact(usize, usize, usize),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0i64..400, any::<i64>()).prop_map(|(k, v)| Action::Insert(k, v)),
        3 => any::<usize>().prop_map(Action::DeleteRid),
        3 => (any::<usize>(), any::<i64>()).prop_map(|(r, v)| Action::UpdateCol(r, v)),
        1 => Just(Action::Flush),
        1 => Just(Action::Checkpoint),
        4 => (0usize..4, 0usize..6, 1usize..4).prop_map(|(p, b0, l)| Action::Compact(p, b0, l)),
    ]
}

fn run_script(partitions: usize, actions: &[Action]) {
    let mut h = DiffHarness::new("t", schema(), vec![0], base_rows(24), 8);
    if partitions > 1 {
        h = h.with_partitions(partitions);
    }
    for action in actions {
        let visible = h.model().len();
        match action {
            // odd keys so collisions come from the script, not the base
            Action::Insert(k, v) => {
                h.insert(row(k * 2 + 1, *v));
            }
            Action::DeleteRid(r) => {
                if visible > 0 {
                    h.delete(r % visible);
                }
            }
            Action::UpdateCol(r, v) => {
                if visible > 0 {
                    h.update_col(&[(r % visible) as u64], 1, &[Value::Int(*v)]);
                }
            }
            Action::Flush => h.flush(),
            Action::Checkpoint => h.checkpoint(),
            Action::Compact(p, b0, len) => h.compact(*p, *b0, b0 + len),
        }
    }
    // a final whole-image step per partition must close every gap
    for p in 0..h.partition_count() {
        h.compact(p, 0, usize::MAX);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_compaction_scripts_stay_scan_identical(
        actions in prop::collection::vec(action_strategy(), 4..16),
        partitions in 1usize..4,
    ) {
        run_script(partitions, &actions);
    }
}
