//! Batch DML ≡ row-at-a-time DML, differentially, across every backend.
//!
//! The batch-first write API (`append` / `delete_rids` / `update_col` /
//! `Appender`) is a pure performance surface: for any workload it must
//! produce exactly the state the equivalent row-at-a-time statements
//! would — same visible rows, same duplicate-key and write-write conflict
//! verdicts, and the same state after a crash recovered from the WAL
//! (whose statement-sized `INS` / `DEL` entries must replay to what
//! one-row entries would have). `testkit::DiffHarness` holds the batched
//! statements to the same `NaiveImage` model it holds the row-at-a-time
//! ones to, one WAL-backed database per [`engine::UpdatePolicy`], so
//! batch ≡ rows follows through the model; every script ends in a crash
//! recovery. Concurrent appends run through `run_interleaved` twice — one
//! `Append` per transaction, then the same rows as `Insert`s — and must
//! reach equal outcomes. This property test hammers the harness with
//! randomized scripts, and the scripted test below pins the edges.

use columnar::{Schema, Tuple, Value, ValueType};
use proptest::prelude::*;
use testkit::{run_interleaved, DiffHarness, TxnOp};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("a", ValueType::Int),
        ("b", ValueType::Int),
    ])
}

/// A row keyed `k` (column `b` mirrors `a`).
fn row(k: i64, a: i64) -> Tuple {
    vec![Value::Int(k), Value::Int(a), Value::Int(a ^ 1)]
}

fn rows(kvs: &[(i64, i64)]) -> Vec<Tuple> {
    kvs.iter().map(|&(k, a)| row(k, a)).collect()
}

fn ints(vs: &[i64]) -> Vec<Value> {
    vs.iter().map(|&v| Value::Int(v)).collect()
}

/// WAL-backed harness under `dir` over `base_keys` rows keyed `0, 10, 20, …`.
fn harness(dir: &str, base_keys: i64, block_rows: usize) -> DiffHarness {
    let base = (0..base_keys).map(|i| row(i * 10, i)).collect();
    let dir = std::env::temp_dir().join(dir);
    DiffHarness::with_wal(dir, "t", schema(), vec![0], base, block_rows)
}

/// Two transactions appending `a` and `b` concurrently, once as one
/// `Append` each and once as the same rows in `Insert`s, over the
/// harness's current image: the batch footprints must reach the per-row
/// verdicts. The winners then land in the harness, whose model must equal
/// the interleaving's image. Returns `(a_committed, b_committed)`.
fn concurrent_appends(h: &mut DiffHarness, a: Vec<Tuple>, b: Vec<Tuple>) -> (bool, bool) {
    let base = h.model().rows().to_vec();
    let inserts =
        |rows: &[Tuple]| -> Vec<TxnOp> { rows.iter().cloned().map(TxnOp::Insert).collect() };
    let rowwise = run_interleaved(schema(), vec![0], base.clone(), &inserts(&a), &inserts(&b));
    let batched = run_interleaved(
        schema(),
        vec![0],
        base,
        &[TxnOp::Append(a.clone())],
        &[TxnOp::Append(b.clone())],
    );
    assert_eq!(
        batched, rowwise,
        "batched and row-wise interleavings reached different outcomes"
    );
    for (ok, rows) in [(batched.a_ok, a), (batched.b_ok, b)] {
        if ok {
            assert!(h.append(rows), "a committed append must replay");
        }
    }
    assert_eq!(h.model().rows(), batched.image.as_slice());
    (batched.a_ok, batched.b_ok)
}

#[derive(Debug, Clone)]
enum Action {
    /// Append a batch of fresh-ish keys (collisions intended: every
    /// database must reject identically).
    Append(Vec<(i64, i64)>),
    /// Positional batch delete of up to 8 picks.
    DeleteRids(Vec<usize>),
    /// Positional batch update of the payload column.
    UpdateCol(Vec<(usize, i64)>),
    /// Positional batch update of the *sort-key* column (§2.1 rewrite;
    /// may collide).
    UpdateKeys(Vec<(usize, i64)>),
    /// Two transactions appending concurrently (overlap ⇒ conflict; the
    /// batch-footprint validation must reach the row-wise verdict).
    ConcurrentAppends(Vec<(i64, i64)>, Vec<(i64, i64)>),
    /// Row-at-a-time insert (may collide).
    Insert(i64, i64),
    /// Row-at-a-time delete by sort key of one pick.
    Delete(usize),
    /// Row-at-a-time update of the payload column of one pick.
    Modify(usize, i64),
    Flush,
    Checkpoint,
    /// Crash every database and recover from the WAL.
    Recover,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    let kv = (0i64..1200, any::<i64>());
    let pick_val = (any::<usize>(), any::<i64>());
    prop_oneof![
        5 => prop::collection::vec(kv.clone(), 1..12).prop_map(Action::Append),
        4 => prop::collection::vec(any::<usize>(), 1..8).prop_map(Action::DeleteRids),
        4 => prop::collection::vec(pick_val, 1..8).prop_map(Action::UpdateCol),
        2 => prop::collection::vec((any::<usize>(), 0i64..1200), 1..5).prop_map(Action::UpdateKeys),
        2 => (
            prop::collection::vec(kv.clone(), 1..6),
            prop::collection::vec(kv.clone(), 1..6),
        )
            .prop_map(|(a, b)| Action::ConcurrentAppends(a, b)),
        1 => kv.prop_map(|(k, a)| Action::Insert(k, a)),
        1 => any::<usize>().prop_map(Action::Delete),
        1 => pick_val.prop_map(|(p, v)| Action::Modify(p, v)),
        1 => Just(Action::Flush),
        1 => Just(Action::Checkpoint),
        2 => Just(Action::Recover),
    ]
}

/// Map arbitrary picks onto current visible positions (distinct).
fn rids_of(h: &DiffHarness, picks: &[usize]) -> Vec<u64> {
    let visible = h.model().len();
    if visible == 0 {
        return Vec::new();
    }
    let mut rids: Vec<u64> = picks.iter().map(|&p| (p % visible) as u64).collect();
    rids.sort_unstable();
    rids.dedup();
    rids
}

/// Odd keys, so collisions come from the script itself, not the
/// (even-keyed) base rows — and repeat-appends collide.
fn odd(kvs: &[(i64, i64)]) -> Vec<Tuple> {
    kvs.iter().map(|&(k, a)| row(k * 2 + 1, a)).collect()
}

fn run_script(case: u64, actions: &[Action]) {
    let mut h = harness(&format!("pdt_batch_diff_{case}"), 16, 8);
    for action in actions {
        match action {
            Action::Append(kvs) => {
                h.append(odd(kvs));
            }
            Action::DeleteRids(picks) => {
                let rids = rids_of(&h, picks);
                if !rids.is_empty() {
                    h.delete_rids(&rids);
                }
            }
            Action::UpdateCol(pairs) => {
                let rids = rids_of(&h, &pairs.iter().map(|p| p.0).collect::<Vec<_>>());
                if !rids.is_empty() {
                    let vals: Vec<i64> = pairs.iter().take(rids.len()).map(|p| p.1).collect();
                    h.update_col(&rids, 1, &ints(&vals));
                }
            }
            Action::UpdateKeys(pairs) => {
                let rids = rids_of(&h, &pairs.iter().map(|p| p.0).collect::<Vec<_>>());
                if !rids.is_empty() {
                    let keys: Vec<i64> =
                        pairs.iter().take(rids.len()).map(|p| p.1 * 2 + 1).collect();
                    h.update_col(&rids, 0, &ints(&keys));
                }
            }
            Action::ConcurrentAppends(a, b) => {
                concurrent_appends(&mut h, odd(a), odd(b));
            }
            Action::Insert(k, a) => {
                h.insert(row(k * 2 + 1, *a));
            }
            Action::Delete(pick) => {
                if let Some(&rid) = rids_of(&h, &[*pick]).first() {
                    h.delete(rid as usize);
                }
            }
            Action::Modify(pick, v) => {
                if let Some(&rid) = rids_of(&h, &[*pick]).first() {
                    h.modify(rid as usize, 1, Value::Int(*v));
                }
            }
            Action::Flush => h.flush(),
            Action::Checkpoint => h.checkpoint(),
            Action::Recover => h.crash_recover(),
        }
    }
    // every run ends with a crash recovery: the full WAL (batched
    // encodings included) must replay to the model
    h.crash_recover();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_equals_rows_under_random_scripts(
        actions in prop::collection::vec(action_strategy(), 4..28),
        case in any::<u64>(),
    ) {
        run_script(case % 1000, &actions);
    }
}

#[test]
fn scripted_edges_batch_equals_rows() {
    let mut h = harness("pdt_batch_diff_edges", 10, 4);
    // bulk append spanning front, gaps and tail, unsorted
    assert!(h.append(rows(&[(95, 1), (-5, 2), (41, 3), (43, 4), (1000, 5)])));
    // duplicate against the image and intra-batch duplicate
    assert!(!h.append(rows(&[(201, 1), (95, 2)])));
    assert!(!h.append(rows(&[(203, 1), (203, 2)])));
    // positional batch delete including a just-appended row
    let last = h.model().len() as u64 - 1;
    h.delete_rids(&[0, 3, last]);
    // batch update of the payload column
    h.update_col(&[1, 2, 5], 1, &ints(&[100, 200, 300]));
    // sort-key rewrite that repositions rows
    assert!(h.update_col(&[0, 1], 0, &ints(&[71, 9])));
    // rewrite colliding with an existing key must fail everywhere
    assert!(!h.update_col(&[0], 0, &ints(&[71])));
    // overlapping concurrent appends conflict identically
    let (a_ok, b_ok) = concurrent_appends(&mut h, rows(&[(301, 1), (303, 2)]), rows(&[(303, 9)]));
    assert!(a_ok && !b_ok, "first writer wins, overlap aborts");
    // so does an overlap at the later batch's second key
    let (a_ok, b_ok) = concurrent_appends(&mut h, rows(&[(601, 1)]), rows(&[(599, 1), (601, 2)]));
    assert!(a_ok && !b_ok, "an overlap past a batch's first key aborts");
    // disjoint concurrent appends both land
    let (a_ok, b_ok) = concurrent_appends(&mut h, rows(&[(401, 1)]), rows(&[(403, 2)]));
    assert!(a_ok && b_ok);
    // maintenance and recovery over the batched log
    h.flush();
    h.checkpoint();
    h.append(rows(&[(501, 1), (503, 2)]));
    h.crash_recover();
    h.delete_rids(&[0, 1]);
    h.crash_recover();
}

/// A `Double` sort key is a duplicate under the order keys sort by
/// (`total_cmp`): `-0.0` and `0.0` are two keys, a NaN is one. A batch
/// must reach the verdicts the same keys reach one row at a time.
#[test]
fn double_keys_are_duplicates_under_their_sort_order() {
    let schema = Schema::from_pairs(&[("k", ValueType::Double), ("a", ValueType::Int)]);
    let r = |k: f64, a: i64| vec![Value::Double(k), Value::Int(a)];
    let base = vec![r(-1.5, 0), r(2.5, 0)];
    let harness = |name: &str| {
        let dir =
            std::env::temp_dir().join(format!("pdt_batch_diff_{name}_{}", std::process::id()));
        DiffHarness::with_wal(dir, "t", schema.clone(), vec![0], base.clone(), 2)
    };
    let mut batched = harness("double_batch");
    assert!(
        batched.append(vec![r(0.0, 1), r(-0.0, 2)]),
        "-0.0 and 0.0 are two keys"
    );
    assert!(
        !batched.append(vec![r(f64::NAN, 3), r(f64::NAN, 4)]),
        "one NaN key twice"
    );
    assert!(batched.append(vec![r(f64::NAN, 3), r(9.0, 4)]));
    assert!(
        !batched.append(vec![r(7.0, 5), r(f64::NAN, 5)]),
        "a NaN key already visible"
    );
    let mut rowwise = harness("double_rows");
    for (k, a) in [(0.0, 1), (-0.0, 2), (f64::NAN, 3), (9.0, 4)] {
        assert!(rowwise.insert(r(k, a)), "{k}");
    }
    assert!(!rowwise.insert(r(f64::NAN, 4)));
    assert_eq!(batched.model().rows(), rowwise.model().rows());
    batched.crash_recover();
    rowwise.crash_recover();
}

/// NaN payloads are values like any other: the harness holds images
/// to the model cell by cell under the total order, through inserts, a
/// positional update, a checkpoint into compressed images and a crash
/// recovered from them.
#[test]
fn nan_payloads_agree_through_checkpoint_and_recovery() {
    let schema = Schema::from_pairs(&[("k", ValueType::Int), ("x", ValueType::Double)]);
    let r = |k: i64, x: f64| vec![Value::Int(k), Value::Double(x)];
    let base = (0..12)
        .map(|i| r(i * 10, if i % 3 == 0 { f64::NAN } else { -0.0 }))
        .collect();
    let dir = std::env::temp_dir().join(format!("pdt_batch_diff_nan_{}", std::process::id()));
    let mut h = DiffHarness::with_wal(dir, "t", schema, vec![0], base, 4);
    h.assert_agree("base");
    assert!(h.insert(r(5, f64::NAN)));
    assert!(h.append(vec![r(15, f64::NAN), r(25, 0.0), r(125, f64::NAN)]));
    let nans = [Value::Double(f64::NAN), Value::Double(-f64::NAN)];
    assert!(h.update_col(&[1, 4], 1, &nans));
    h.checkpoint();
    h.crash_recover();
    h.delete_rids(&[0]);
    h.crash_recover();
}

/// Two statements of one transaction modify two columns of a committed,
/// not yet checkpointed row whose sort key is NaN: the log carries the
/// row as the transaction left it, so the image recovered from it is the
/// live one — the value stores' WAL flattening must find the row's
/// post-image by its NaN key again for the second column, or it logs
/// that column over the committed row and loses the first.
#[test]
fn two_updates_of_a_nan_keyed_row_survive_recovery() {
    let schema = Schema::from_pairs(&[
        ("k", ValueType::Double),
        ("a", ValueType::Int),
        ("b", ValueType::Int),
    ]);
    let r = |k: f64| vec![Value::Double(k), Value::Int(0), Value::Int(0)];
    let dir = std::env::temp_dir().join(format!("pdt_batch_diff_nan_key_{}", std::process::id()));
    let mut h = DiffHarness::with_wal(dir, "t", schema, vec![0], vec![r(-1.0), r(2.0)], 2);
    assert!(h.insert(r(f64::NAN)));
    h.update_cols(2, &[(1, Value::Int(5)), (2, Value::Int(7))]);
    h.crash_recover();
}
