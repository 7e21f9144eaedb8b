//! Position resolution ≡ the scans it replaced, differentially.
//!
//! Positional DML finds its pre-images with a sparse gather (RID → layer
//! stack → stable block) and its insert positions with a run-wise ranker;
//! both used to be enclosing scans. The contract is that nothing but the
//! I/O changed:
//!
//! * `gather(rids, cols)` ≡ the rows `scan_with(ScanSpec::cols(cols))`
//!   emits at those rids ≡ the model, for every policy, partitioned or
//!   not, over a table carrying all three layers (a flushed Read layer, a
//!   committed Write layer and the transaction's own Trans layer);
//! * run-wise rank ≡ the old enclosing-range rank ≡ the model's count of
//!   smaller keys, duplicate verdicts included.
//!
//! `DiffHarness` builds the committed layers under all three policies in
//! lockstep with the naive model; the Trans layer is staged here, in an
//! open transaction per database, and mirrored into a clone of the model.

use columnar::{Schema, Tuple, Value, ValueType};
use engine::testkit::{gather_at, rank_rows, DiffHarness};
use engine::{Database, DbError, DbTxn, ScanSpec, UpdatePolicy};
use exec::{run_to_rows, Batch, Operator};
use pdt::naive::NaiveImage;
use proptest::prelude::*;

const TABLE: &str = "t";
const BLOCK_ROWS: usize = 8;
const BASE_ROWS: i64 = 48;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("a", ValueType::Int),
        ("s", ValueType::Str),
    ])
}

fn row(k: i64, a: i64) -> Tuple {
    vec![
        Value::Int(k),
        Value::Int(a),
        Value::Str(format!("s{}", a.rem_euclid(7))),
    ]
}

/// Keys 0, 10, …: block `b` holds keys `80 b .. 80 b + 70`.
fn harness(parts: usize) -> DiffHarness {
    let rows: Vec<Tuple> = (0..BASE_ROWS).map(|i| row(i * 10, i)).collect();
    let h = DiffHarness::new(TABLE, schema(), vec![0], rows, BLOCK_ROWS);
    if parts > 1 {
        h.with_partitions(parts)
    } else {
        h
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Append rows with these keys (those already present are dropped).
    Append(Vec<(i64, i64)>),
    /// Delete the rows at these picks.
    Delete(Vec<usize>),
    /// Delete a run of adjacent rows — ghosts sharing one rid, and with a
    /// long run whole blocks of them.
    DeleteRun(usize, usize),
    /// Update the non-key columns at these picks.
    Update(Vec<(usize, i64)>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // keys reach below the first block (negative) and past the last one
    let kv = (-30i64..560, any::<i64>());
    prop_oneof![
        4 => prop::collection::vec(kv, 1..10).prop_map(Op::Append),
        3 => prop::collection::vec(any::<usize>(), 1..6).prop_map(Op::Delete),
        2 => (any::<usize>(), 2usize..20).prop_map(|(at, len)| Op::DeleteRun(at, len)),
        4 => prop::collection::vec((any::<usize>(), any::<i64>()), 1..8).prop_map(Op::Update),
    ]
}

/// An op made concrete against the current image: fresh rows to append,
/// or ascending distinct rids.
enum Concrete {
    Append(Vec<Tuple>),
    Delete(Vec<u64>),
    Update(Vec<u64>, Vec<i64>),
}

fn picks_to_rids(picks: impl Iterator<Item = usize>, visible: usize) -> Vec<u64> {
    let mut rids: Vec<u64> = picks.map(|p| (p % visible) as u64).collect();
    rids.sort_unstable();
    rids.dedup();
    rids
}

fn concretize(op: &Op, model: &NaiveImage) -> Option<Concrete> {
    let visible = model.len();
    match op {
        Op::Append(kvs) => {
            let mut rows: Vec<Tuple> = Vec::new();
            for &(k, a) in kvs {
                let taken = |r: &Tuple| r[0] == Value::Int(k);
                if !model.rows().iter().any(taken) && !rows.iter().any(taken) {
                    rows.push(row(k, a));
                }
            }
            (!rows.is_empty()).then_some(Concrete::Append(rows))
        }
        _ if visible == 0 => None,
        Op::Delete(picks) => Some(Concrete::Delete(picks_to_rids(
            picks.iter().copied(),
            visible,
        ))),
        Op::DeleteRun(at, len) => {
            let start = at % visible;
            let end = (start + len).min(visible);
            Some(Concrete::Delete((start as u64..end as u64).collect()))
        }
        Op::Update(pairs) => {
            let rids = picks_to_rids(pairs.iter().map(|p| p.0), visible);
            let vals = pairs.iter().take(rids.len()).map(|p| p.1).collect();
            Some(Concrete::Update(rids, vals))
        }
    }
}

/// Commit `op` through the harness (all policies + the model).
fn commit_op(h: &mut DiffHarness, op: &Op) {
    match concretize(op, h.model()) {
        None => {}
        Some(Concrete::Append(rows)) => assert!(h.append(rows)),
        Some(Concrete::Delete(rids)) => h.delete_rids(&rids),
        Some(Concrete::Update(rids, vals)) => {
            let a: Vec<Value> = vals.iter().map(|&v| Value::Int(v)).collect();
            h.update_col(&rids, 1, &a);
            let s: Vec<Value> = vals
                .iter()
                .map(|v| Value::Str(format!("u{}", v.rem_euclid(5))))
                .collect();
            h.update_col(&rids, 2, &s);
        }
    }
}

/// Stage `op` in an open transaction and mirror it into `model`.
fn stage_op(txn: &mut DbTxn<'_>, model: &mut NaiveImage, op: &Op) {
    match concretize(op, model) {
        None => {}
        Some(Concrete::Append(rows)) => {
            txn.append(TABLE, Batch::from_rows(&schema().types(), &rows))
                .unwrap();
            for r in rows {
                let pos = model
                    .rows()
                    .iter()
                    .position(|m| m[0] > r[0])
                    .unwrap_or(model.len());
                model.insert(pos, r);
            }
        }
        Some(Concrete::Delete(rids)) => {
            txn.delete_rids(TABLE, &rids).unwrap();
            for &r in rids.iter().rev() {
                model.delete(r as usize);
            }
        }
        Some(Concrete::Update(rids, vals)) => {
            txn.update_col(TABLE, &rids, 1, columnar::ColumnVec::Int(vals.clone()))
                .unwrap();
            for (&r, &v) in rids.iter().zip(&vals) {
                model.modify(r as usize, 1, Value::Int(v));
            }
        }
    }
}

/// `gather ≡ scan ≡ model` at `rids`, for a few projections.
fn assert_gather(policy: UpdatePolicy, txn: &DbTxn<'_>, model: &NaiveImage, rids: &[u64]) {
    for cols in [vec![0], vec![2, 0], vec![1], vec![0, 1, 2], vec![]] {
        let got = gather_at(txn, TABLE, rids, &cols)
            .unwrap_or_else(|e| panic!("{policy:?}: gather {rids:?} cols {cols:?}: {e}"));
        assert_eq!(got.num_cols(), cols.len(), "{policy:?}");
        if cols.is_empty() {
            continue;
        }
        let image = run_to_rows(&mut txn.scan_with(TABLE, ScanSpec::cols(cols.clone())).unwrap());
        let from_scan: Vec<Tuple> = rids.iter().map(|&r| image[r as usize].clone()).collect();
        let from_model: Vec<Tuple> = rids
            .iter()
            .map(|&r| {
                cols.iter()
                    .map(|&c| model.rows()[r as usize][c].clone())
                    .collect()
            })
            .collect();
        assert_eq!(
            got.rows(),
            from_scan,
            "{policy:?}: gather vs scan at {rids:?}, cols {cols:?}"
        );
        assert_eq!(
            got.rows(),
            from_model,
            "{policy:?}: gather vs model at {rids:?}, cols {cols:?}"
        );
    }
}

/// The rank `append` used before it ranked run by run: one scan over the
/// batch's enclosing key range, a `Vec<Value>` per scanned row. Valid for
/// single-partition tables (global and partition-local rids coincide).
fn enclosing_range_rank(txn: &DbTxn<'_>, keys: &[Vec<Value>]) -> Result<Vec<u64>, DbError> {
    let n = keys.len();
    let spec = ScanSpec::cols(vec![0]).key_range(keys[0].clone(), keys[n - 1].clone());
    let mut scan = txn.scan_with(TABLE, spec)?;
    let mut base = Vec::with_capacity(n);
    let mut last_end = scan.start_rid();
    let mut k = 0usize;
    'scan: while let Some(b) = scan.next_batch() {
        for i in 0..b.num_rows() {
            let vis: Vec<Value> = b.cols.iter().map(|c| c.get(i)).collect();
            while k < n {
                match keys[k].cmp(&vis) {
                    std::cmp::Ordering::Less => {
                        base.push(b.rid_start + i as u64);
                        k += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        return Err(DbError::DuplicateKey {
                            table: TABLE.into(),
                            key: keys[k].clone(),
                        })
                    }
                    std::cmp::Ordering::Greater => break,
                }
            }
            if k == n {
                break 'scan;
            }
        }
        last_end = b.rid_start + b.num_rows() as u64;
    }
    base.resize(n, last_end);
    Ok(base)
}

/// `run-wise rank ≡ enclosing-range rank ≡ model` for one sorted key set.
fn assert_rank(
    policy: UpdatePolicy,
    db: &Database,
    txn: &DbTxn<'_>,
    model: &NaiveImage,
    mut keys: Vec<i64>,
) {
    keys.sort_unstable();
    keys.dedup();
    let rows: Vec<Tuple> = keys.iter().map(|&k| row(k, 0)).collect();
    let got = rank_rows(txn, TABLE, &Batch::from_rows(&schema().types(), &rows));
    let dup = keys
        .iter()
        .any(|&k| model.rows().iter().any(|r| r[0] == Value::Int(k)));
    let got = match got {
        Err(DbError::DuplicateKey { .. }) if dup => {
            if db.partition_count(TABLE).unwrap() == 1 {
                let sk: Vec<Vec<Value>> = keys.iter().map(|&k| vec![Value::Int(k)]).collect();
                assert!(
                    matches!(
                        enclosing_range_rank(txn, &sk),
                        Err(DbError::DuplicateKey { .. })
                    ),
                    "{policy:?}: enclosing-range rank accepts duplicate {keys:?}"
                );
            }
            return;
        }
        other => other.unwrap_or_else(|e| panic!("{policy:?}: rank {keys:?}: {e}")),
    };
    assert!(!dup, "{policy:?}: duplicate among {keys:?} went unnoticed");
    // global rank of a key = rows of earlier partitions + its local rank
    let splits = db.partition_splits(TABLE).unwrap();
    let below = |bound: &Value| model.rows().iter().filter(|r| r[0] < *bound).count() as u64;
    let global: Vec<u64> = got
        .iter()
        .flat_map(|(p, base)| {
            let offset = if *p == 0 { 0 } else { below(&splits[p - 1][0]) };
            base.iter().map(move |b| b + offset)
        })
        .collect();
    let truth: Vec<u64> = keys.iter().map(|&k| below(&Value::Int(k))).collect();
    assert_eq!(global, truth, "{policy:?}: run-wise rank of {keys:?}");
    if splits.is_empty() {
        let sk: Vec<Vec<Value>> = keys.iter().map(|&k| vec![Value::Int(k)]).collect();
        assert_eq!(
            enclosing_range_rank(txn, &sk).unwrap(),
            truth,
            "{policy:?}: enclosing-range rank of {keys:?}"
        );
    }
}

/// Build the three layers from the three op lists, then check the gather
/// at `rid_picks` (plus every row, and the rows around each split point)
/// and the ranker on `key_sets`.
fn run_case(
    parts: usize,
    read: &[Op],
    write: &[Op],
    trans: &[Op],
    rid_picks: &[Vec<usize>],
    key_sets: &[Vec<i64>],
) {
    let mut h = harness(parts);
    for op in read {
        commit_op(&mut h, op);
    }
    h.flush(); // PDT: Write → Read
    for op in write {
        commit_op(&mut h, op);
    }
    for (policy, db) in h.dbs() {
        let mut model = h.model().clone();
        let mut txn = db.begin();
        for op in trans {
            stage_op(&mut txn, &mut model, op);
        }
        let visible = model.len();
        assert_eq!(txn.visible_rows(TABLE).unwrap(), visible as u64);
        // out of range is a shape error, whatever the policy
        assert!(matches!(
            gather_at(&txn, TABLE, &[visible as u64], &[0]),
            Err(DbError::BatchShape { .. })
        ));
        assert!(gather_at(&txn, TABLE, &[], &[0]).unwrap().is_empty());
        if visible > 0 {
            let all: Vec<u64> = (0..visible as u64).collect();
            assert_gather(policy, &txn, &model, &all);
            // the rows on either side of every split point
            let splits = db.partition_splits(TABLE).unwrap();
            let mut straddle: Vec<u64> = splits
                .iter()
                .flat_map(|s| {
                    let at = model.rows().iter().filter(|r| r[0] < s[0]).count() as u64;
                    [at.saturating_sub(1), at.min(visible as u64 - 1)]
                })
                .collect();
            straddle.sort_unstable();
            straddle.dedup();
            assert_gather(policy, &txn, &model, &straddle);
            for picks in rid_picks {
                let rids = picks_to_rids(picks.iter().copied(), visible);
                assert_gather(policy, &txn, &model, &rids);
            }
        }
        for keys in key_sets {
            assert_rank(policy, db, &txn, &model, keys.clone());
        }
        txn.abort();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gather_and_rank_match_scans_and_model(
        read in prop::collection::vec(op_strategy(), 0..8),
        write in prop::collection::vec(op_strategy(), 0..8),
        trans in prop::collection::vec(op_strategy(), 0..6),
        rid_picks in prop::collection::vec(prop::collection::vec(any::<usize>(), 1..12), 1..4),
        key_sets in prop::collection::vec(prop::collection::vec(-40i64..600, 1..14), 1..5),
    ) {
        for parts in [1, 4] {
            run_case(parts, &read, &write, &trans, &rid_picks, &key_sets);
        }
    }
}

/// The shapes the sweep may miss, pinned: inserts at block starts and past
/// the last block in every layer, a modify-of-insert inside one layer and
/// from the layer above, a modify-of-modify from a higher layer, ghost
/// runs sharing one rid (a whole block among them), key sets colliding
/// with the image, below the first and above the last block, and inside
/// fully ghosted ranges.
#[test]
fn scripted_layer_shapes() {
    // block b starts at key 80 b: 80 b − 5 lands at SID 8 b, a block start
    let block_starts = |a: i64| Op::Append((1..6).map(|b| (80 * b - 5, a)).collect());
    let read = [
        block_starts(1),
        Op::Append(vec![(1000, 1), (1010, 1), (-20, 1)]),
        Op::Update(vec![(3, 7), (20, 7), (50, 7)]),
        Op::DeleteRun(10, 3),
        // modify-of-insert within the layer: rid 0 is the (-20) insert
        Op::Update(vec![(0, 9)]),
    ];
    let write = [
        // modify-of-insert and modify-of-modify from the layer above
        Op::Update(vec![(0, 11), (3, 11), (4, 11)]),
        Op::Append(vec![(155, 2), (1020, 2), (-30, 2)]),
        // a ghost run swallowing block 3 (keys 240..310) and its neighbours
        Op::DeleteRun(24, 14),
    ];
    let trans = [
        Op::Update(vec![(0, 13), (1, 13), (5, 13)]),
        Op::Append(vec![(156, 3), (1030, 3), (235, 3)]),
        Op::DeleteRun(2, 4),
        Op::Delete(vec![0]),
    ];
    let rid_picks = [vec![0, 1, 2, 3], vec![5, 17, 29, 41, 53], vec![usize::MAX]];
    let key_sets = [
        vec![-100, -25, 5, 2000],              // below the first, above the last
        vec![245, 255, 265, 300, 333],         // inside the ghosted range
        vec![75, 76, 77, 78, 79, 81],          // around a block start
        vec![5, 400],                          // two far-apart runs
        vec![15, 1000],                        // 1000 collides with the image
        vec![154, 156, 158],                   // 156 collides with the Trans layer
        (0..60).map(|i| i * 10 + 1).collect(), // one key per stable row
    ];
    for parts in [1, 4] {
        run_case(parts, &read, &write, &trans, &rid_picks, &key_sets);
    }
}
