//! Partitioned ≡ single-partition, differentially, across every backend.
//!
//! Range partitioning is a pure scale surface: for any workload a
//! partitioned table must produce exactly the state its single-partition
//! twin would — same visible images (partitions union back in sort
//! order), same duplicate-key and write-write conflict verdicts, and the
//! same state after a crash recovered from the partition-tagged WAL
//! (per-partition checkpoint markers must cover exactly the folded
//! commits of their partition, never a sibling's).
//!
//! `testkit::DiffHarness` already compares one database per
//! [`engine::UpdatePolicy`] against the executable specification
//! `NaiveImage` after every step; the `partitions` knob rebuilds those
//! databases range-partitioned, so the *same oracle* proves the
//! partitioned layout equivalent. The property test sweeps batch shapes
//! *and* split points — including split points outside the populated key
//! range (empty partitions) and adjacent ones (single-row partitions) —
//! and every run ends in a crash recovery. `run_interleaved_spec` extends
//! the oracle to conflict verdicts: the same two-transaction interleaving
//! must reach the same commit/abort decisions under every partitioning.

use columnar::{Schema, Tuple, Value, ValueType};
use engine::PartitionSpec;
use proptest::prelude::*;
use testkit::{run_interleaved, run_interleaved_spec, DiffHarness, TxnOp};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("a", ValueType::Int),
        ("b", ValueType::Int),
    ])
}

fn base_rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| vec![Value::Int(i * 10), Value::Int(i), Value::Int(-i)])
        .collect()
}

fn row(k: i64, a: i64) -> Tuple {
    vec![Value::Int(k), Value::Int(a), Value::Int(a ^ 1)]
}

#[derive(Debug, Clone)]
enum Action {
    /// Batch append (key collisions intended — every layout must reject
    /// identically).
    Append(Vec<(i64, i64)>),
    /// Single-row insert (the one-row batch shape).
    Insert(i64, i64),
    /// Positional batch delete of up to 8 picks.
    DeleteRids(Vec<usize>),
    /// Positional batch update of the payload column.
    UpdateCol(Vec<(usize, i64)>),
    /// Key rewrite of one row (may cross split points, may collide).
    RewriteKey(usize, i64),
    Flush,
    Checkpoint,
    /// Crash every database and recover from the partition-tagged WAL.
    Recover,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    let kv = (0i64..400, any::<i64>());
    prop_oneof![
        5 => prop::collection::vec(kv.clone(), 1..10).prop_map(Action::Append),
        2 => kv.clone().prop_map(|(k, v)| Action::Insert(k, v)),
        4 => prop::collection::vec(any::<usize>(), 1..8).prop_map(Action::DeleteRids),
        4 => prop::collection::vec((any::<usize>(), any::<i64>()), 1..8)
            .prop_map(Action::UpdateCol),
        2 => (any::<usize>(), 0i64..400).prop_map(|(p, k)| Action::RewriteKey(p, k)),
        1 => Just(Action::Flush),
        2 => Just(Action::Checkpoint),
        2 => Just(Action::Recover),
    ]
}

/// Split-point strategy: up to 4 points over (and beyond) the populated
/// key range, so empty partitions and adjacent (single-row) partitions
/// both occur. Points are deduplicated and sorted into a valid spec.
fn splits_strategy() -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(-20i64..400, 0..4).prop_map(|mut ks| {
        ks.sort_unstable();
        ks.dedup();
        ks.into_iter().map(|k| vec![Value::Int(k)]).collect()
    })
}

fn run_script(case: u64, splits: Vec<Vec<Value>>, actions: &[Action]) {
    let dir = std::env::temp_dir().join(format!("pdt_part_diff_{case}"));
    let mut h = DiffHarness::with_wal(dir, "t", schema(), vec![0], base_rows(24), 8)
        .with_split_points(splits);
    for action in actions {
        let visible = h.model().len();
        match action {
            Action::Append(kvs) => {
                // odd keys so collisions come from the script itself, not
                // the (even-keyed) base rows — repeat-appends collide
                h.append(kvs.iter().map(|&(k, v)| row(k * 2 + 1, v)).collect());
            }
            Action::Insert(k, v) => {
                h.insert(row(k * 2 + 1, *v));
            }
            Action::DeleteRids(picks) => {
                if visible > 0 {
                    let rids: Vec<u64> = picks.iter().map(|&p| (p % visible) as u64).collect();
                    h.delete_rids(&rids);
                }
            }
            Action::UpdateCol(pairs) => {
                if visible > 0 {
                    let rids: Vec<u64> = pairs.iter().map(|&(p, _)| (p % visible) as u64).collect();
                    let vals: Vec<Value> = pairs.iter().map(|&(_, v)| Value::Int(v)).collect();
                    h.update_col(&rids, 1, &vals);
                }
            }
            Action::RewriteKey(pick, k) => {
                if visible > 0 {
                    // a key rewrite routes the row to a (possibly
                    // different) partition; collisions must reject
                    // identically everywhere
                    h.modify(pick % visible, 0, Value::Int(k * 2 + 1));
                }
            }
            Action::Flush => h.flush(),
            Action::Checkpoint => h.checkpoint(),
            Action::Recover => h.crash_recover(),
        }
    }
    // every run ends with a crash recovery: the partition-tagged WAL
    // (markers included) must replay every partition to the model
    h.crash_recover();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn partitioned_equals_single_under_random_scripts(
        splits in splits_strategy(),
        actions in prop::collection::vec(action_strategy(), 4..20),
        case in any::<u64>(),
    ) {
        run_script(case % 1000, splits, &actions);
    }
}

/// The scripted edges: split points at/next to live keys, empty outer
/// partitions, cross-partition batches, key rewrites across splits, and
/// per-partition checkpoint/recovery interleavings.
#[test]
fn scripted_partition_edges() {
    let splits = vec![
        vec![Value::Int(-100)], // empty low partition
        vec![Value::Int(50)],
        vec![Value::Int(60)],   // single-row partition [50, 60)
        vec![Value::Int(1000)], // empty high partition
    ];
    let dir = std::env::temp_dir().join("pdt_part_diff_edges");
    let mut h = DiffHarness::with_wal(dir, "t", schema(), vec![0], base_rows(24), 8)
        .with_split_points(splits);
    assert_eq!(h.partition_count(), 5);
    // batch spanning every partition, unsorted, incl. the empty outers
    assert!(h.append(vec![
        row(-500, 1),
        row(55, 2),
        row(2000, 3),
        row(5, 4),
        row(131, 5),
    ]));
    // duplicate in another partition than the first row's: whole batch
    // rejected everywhere
    assert!(!h.append(vec![row(-501, 1), row(55, 9)]));
    // positional deletes/updates straddling split boundaries
    h.delete_rids(&[0, 5, 6, 7, 20]);
    let visible = h.model().len() as u64;
    h.update_col(
        &[0, 3, visible - 1],
        1,
        &[Value::Int(100), Value::Int(200), Value::Int(300)],
    );
    // key rewrites that move rows between partitions (both directions)
    assert!(h.modify(1, 0, Value::Int(701)));
    assert!(h.modify(h.model().len() - 1, 0, Value::Int(-701)));
    // rewrite collision with a key in a *different* partition
    assert!(!h.modify(0, 0, Value::Int(701)));
    // maintenance + crash recovery over the partition-tagged log
    h.flush();
    h.checkpoint();
    assert!(h.append(vec![row(61, 1), row(63, 2)]));
    h.crash_recover();
    h.delete_rids(&[0, 1]);
    h.crash_recover();
}

/// Conflict verdicts must not depend on the partitioning: the same
/// interleavings, under single-partition and two partitioned layouts,
/// reach identical commit/abort decisions and final images.
#[test]
fn interleaved_verdicts_are_partitioning_independent() {
    let rows = base_rows(8);
    let scripts: Vec<(Vec<TxnOp>, Vec<TxnOp>)> = vec![
        // same-key modifies: second committer aborts
        (
            vec![TxnOp::Modify {
                key: vec![Value::Int(30)],
                col: 1,
                value: Value::Int(111),
            }],
            vec![TxnOp::Modify {
                key: vec![Value::Int(30)],
                col: 1,
                value: Value::Int(222),
            }],
        ),
        // disjoint columns of the same key: reconcile
        (
            vec![TxnOp::Modify {
                key: vec![Value::Int(30)],
                col: 1,
                value: Value::Int(111),
            }],
            vec![TxnOp::Modify {
                key: vec![Value::Int(30)],
                col: 2,
                value: Value::Int(222),
            }],
        ),
        // same-key insert race (lands in the middle partition)
        (
            vec![TxnOp::Insert(row(35, 1))],
            vec![TxnOp::Insert(row(35, 2))],
        ),
        // writes to *different* partitions: both commit
        (
            vec![TxnOp::Insert(row(5, 1))],
            vec![TxnOp::Delete {
                key: vec![Value::Int(60)],
            }],
        ),
        // delete vs modify of one key
        (
            vec![TxnOp::Delete {
                key: vec![Value::Int(40)],
            }],
            vec![TxnOp::Modify {
                key: vec![Value::Int(40)],
                col: 1,
                value: Value::Int(9),
            }],
        ),
    ];
    let specs = [
        PartitionSpec::SplitPoints(vec![vec![Value::Int(31)]]),
        PartitionSpec::SplitPoints(vec![
            vec![Value::Int(10)],
            vec![Value::Int(30)],
            vec![Value::Int(60)],
        ]),
    ];
    for (a_ops, b_ops) in &scripts {
        let single = run_interleaved(schema(), vec![0], rows.clone(), a_ops, b_ops);
        for spec in &specs {
            let parted =
                run_interleaved_spec(schema(), vec![0], rows.clone(), a_ops, b_ops, spec.clone());
            assert_eq!(
                parted, single,
                "verdict depends on partitioning {spec:?} for {a_ops:?} vs {b_ops:?}"
            );
        }
    }
}
