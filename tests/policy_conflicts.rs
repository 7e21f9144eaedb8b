//! Write-write conflict decisions must be **identical across all three
//! update policies** for the same two-transaction interleaving: the PDT
//! reaches its verdict by TZ-set serialization (Algorithm 8), the VDT by
//! value-wise replay against the pending tree, the row store by
//! run-footprint validation — three mechanisms, one contract.
//!
//! `testkit::run_interleaved` executes «begin A; begin B; stage A;
//! stage B; commit A; commit B» against one database per policy and
//! asserts the per-transaction commit/abort decisions and the final image
//! agree. The scripted tests pin the paper's `CheckModConflict` semantics
//! (same-column modifies abort, disjoint-column modifies reconcile); the
//! property test then hammers the agreement over randomized interleavings
//! of inserts, deletes and modifies.

use columnar::{Schema, Tuple, Value, ValueType};
use proptest::prelude::*;
use testkit::{run_interleaved, TxnOp};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("a", ValueType::Int),
        ("b", ValueType::Int),
    ])
}

fn base_rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| vec![Value::Int(i * 10), Value::Int(0), Value::Int(0)])
        .collect()
}

const N: i64 = 8;

fn key(pick: usize) -> Vec<Value> {
    vec![Value::Int((pick as i64 % N) * 10)]
}

/// One random statement. `tag` makes every written value distinct, so a
/// "conflict" is never two transactions writing the same bytes (where the
/// backends could legitimately differ in what they consider a clash).
fn op_strategy(tag: i64) -> impl Strategy<Value = TxnOp> {
    prop_oneof![
        // insert an odd (fresh) key; A draws from 1..39, B from 41..79 so
        // the *duplicate sort key* case is covered by the scripted test
        // below, not by accident here
        2 => (0i64..19).prop_map(move |g| TxnOp::Insert(vec![
            Value::Int(g * 2 + 1 + tag * 40),
            Value::Int(tag),
            Value::Int(tag),
        ])),
        3 => any::<usize>().prop_map(|p| TxnOp::Delete { key: key(p) }),
        5 => (any::<usize>(), 1usize..3, 0i64..1000).prop_map(move |(p, c, v)| TxnOp::Modify {
            key: key(p),
            col: c,
            value: Value::Int(1000 + tag * 10_000 + v),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized interleavings: `run_interleaved` panics if any policy
    /// disagrees on either commit decision or the final image.
    #[test]
    fn conflict_decisions_identical_across_policies(
        a_ops in prop::collection::vec(op_strategy(0), 1..4),
        b_ops in prop::collection::vec(op_strategy(1), 1..4),
    ) {
        let out = run_interleaved(schema(), vec![0], base_rows(N), &a_ops, &b_ops);
        // A commits first and stages against the begin-time snapshot: its
        // statements can only fail at staging time (a duplicate key against
        // the snapshot or against its own earlier inserts), never at commit
        let mut seen = std::collections::HashSet::new();
        let a_stageable = a_ops.iter().all(|op| match op {
            TxnOp::Insert(t) => t[0].as_int() % 10 != 0 && seen.insert(t[0].as_int()),
            _ => true,
        });
        prop_assert_eq!(out.a_ok, a_stageable, "first committer must win");
    }
}

#[test]
fn same_column_modifies_abort_everywhere() {
    let m = |v: i64| TxnOp::Modify {
        key: key(3),
        col: 1,
        value: Value::Int(v),
    };
    let out = run_interleaved(schema(), vec![0], base_rows(N), &[m(111)], &[m(222)]);
    assert!(out.a_ok, "first writer commits");
    assert!(!out.b_ok, "second writer of the same column must abort");
    assert_eq!(
        out.image[3],
        vec![Value::Int(30), Value::Int(111), Value::Int(0)],
        "first writer's value survives in every backend"
    );
}

#[test]
fn disjoint_column_modifies_reconcile_everywhere() {
    let a = TxnOp::Modify {
        key: key(3),
        col: 1,
        value: Value::Int(111),
    };
    let b = TxnOp::Modify {
        key: key(3),
        col: 2,
        value: Value::Int(222),
    };
    let out = run_interleaved(schema(), vec![0], base_rows(N), &[a], &[b]);
    assert!(out.a_ok && out.b_ok, "disjoint columns must reconcile");
    assert_eq!(
        out.image[3],
        vec![Value::Int(30), Value::Int(111), Value::Int(222)],
        "both columns land in every backend"
    );
}

#[test]
fn later_op_of_multi_op_txn_still_conflicts_everywhere() {
    // regression: B's *second* statement touches the column A wrote — the
    // lost update must abort B in every backend, even though B's first
    // statement on the same key reconciled (this once diverged: the VDT's
    // replay skipped validation of later own-key ops)
    let a = TxnOp::Modify {
        key: key(3),
        col: 2,
        value: Value::Int(999),
    };
    let b = [
        TxnOp::Modify {
            key: key(3),
            col: 1,
            value: Value::Int(111),
        },
        TxnOp::Modify {
            key: key(3),
            col: 2,
            value: Value::Int(222),
        },
    ];
    let out = run_interleaved(schema(), vec![0], base_rows(N), &[a], &b);
    assert!(out.a_ok && !out.b_ok, "second writer must lose");
    assert_eq!(
        out.image[3],
        vec![Value::Int(30), Value::Int(0), Value::Int(999)],
        "A's write survives untouched"
    );

    // and modify-then-delete: the delete collides with A's modify
    let a = TxnOp::Modify {
        key: key(3),
        col: 2,
        value: Value::Int(999),
    };
    let b = [
        TxnOp::Modify {
            key: key(3),
            col: 1,
            value: Value::Int(111),
        },
        TxnOp::Delete { key: key(3) },
    ];
    let out = run_interleaved(schema(), vec![0], base_rows(N), &[a], &b);
    assert!(out.a_ok && !out.b_ok, "delete must not swallow A's modify");
    assert_eq!(out.image.len(), N as usize);
}

#[test]
fn same_key_inserts_abort_second_writer_everywhere() {
    let ins = |v: i64| TxnOp::Insert(vec![Value::Int(35), Value::Int(v), Value::Int(v)]);
    let out = run_interleaved(schema(), vec![0], base_rows(N), &[ins(1)], &[ins(2)]);
    assert!(out.a_ok && !out.b_ok);
    assert_eq!(out.image.len(), N as usize + 1);
    assert_eq!(
        out.image[4],
        vec![Value::Int(35), Value::Int(1), Value::Int(1)]
    );
}

#[test]
fn delete_vs_modify_aborts_second_writer_everywhere() {
    let a = TxnOp::Modify {
        key: key(5),
        col: 2,
        value: Value::Int(9),
    };
    let b = TxnOp::Delete { key: key(5) };
    let out = run_interleaved(schema(), vec![0], base_rows(N), &[a], &[b]);
    assert!(
        out.a_ok && !out.b_ok,
        "the delete must not swallow the modify"
    );
    assert_eq!(out.image.len(), N as usize, "row survives");
}

#[test]
fn delete_vs_delete_aborts_second_writer_everywhere() {
    let d = || TxnOp::Delete { key: key(2) };
    let out = run_interleaved(schema(), vec![0], base_rows(N), &[d()], &[d()]);
    assert!(out.a_ok && !out.b_ok);
    assert_eq!(out.image.len(), N as usize - 1);
}

#[test]
fn disjoint_keys_commit_both_everywhere() {
    let a = TxnOp::Modify {
        key: key(1),
        col: 1,
        value: Value::Int(-1),
    };
    let b = TxnOp::Modify {
        key: key(6),
        col: 1,
        value: Value::Int(-2),
    };
    let out = run_interleaved(schema(), vec![0], base_rows(N), &[a], &[b]);
    assert!(out.a_ok && out.b_ok);
    assert_eq!(out.image[1][1], Value::Int(-1));
    assert_eq!(out.image[6][1], Value::Int(-2));
}

/// A `Double` sort key is one key under the order keys sort by: two
/// concurrent inserts of one NaN key abort the second writer everywhere —
/// the row store's hashed footprint must find a NaN key it holds.
#[test]
fn concurrent_inserts_of_one_nan_key_abort_the_second_writer_everywhere() {
    let schema = Schema::from_pairs(&[("k", ValueType::Double), ("a", ValueType::Int)]);
    let base = vec![vec![Value::Double(1.0), Value::Int(0)]];
    let ins = |a: i64| TxnOp::Insert(vec![Value::Double(f64::NAN), Value::Int(a)]);
    let out = run_interleaved(schema, vec![0], base, &[ins(1)], &[ins(2)]);
    assert!(out.a_ok && !out.b_ok, "{out:?}");
    assert_eq!(out.image.len(), 2);
}

/// A modify of a column holding NaN reconciles with a concurrent modify
/// of another column of the same row everywhere — the VDT's replay must
/// see the NaN it staged against as unchanged.
#[test]
fn modify_of_a_nan_column_reconciles_with_a_disjoint_concurrent_modify_everywhere() {
    let schema = Schema::from_pairs(&[
        ("k", ValueType::Double),
        ("a", ValueType::Double),
        ("b", ValueType::Int),
    ]);
    let row = |k: f64, a: f64, b: i64| vec![Value::Double(k), Value::Double(a), Value::Int(b)];
    let base = vec![row(1.0, f64::NAN, 0), row(2.0, 0.5, 0)];
    let key = vec![Value::Double(1.0)];
    let set = |col: usize, value: Value| TxnOp::Modify {
        key: key.clone(),
        col,
        value,
    };
    let out = run_interleaved(
        schema,
        vec![0],
        base,
        &[set(2, Value::Int(5))],
        &[set(1, Value::Double(3.0))],
    );
    assert!(out.a_ok && out.b_ok, "{out:?}");
    assert_eq!(out.image[0], row(1.0, 3.0, 5));
}
