//! Workspace-level lifecycle test: bulk load → transactions → delta-layer
//! maintenance → checkpoint → WAL recovery — driven through the
//! differential harness, so every stage is validated against the naive
//! model for *all three* update policies at once, through the one
//! `DeltaStore`-backed API.

use columnar::{Schema, Tuple, Value, ValueType};
use engine::testkit::DiffHarness;
use engine::{Database, ScanSpec, TableOptions, ALL_POLICIES};
use exec::expr::{col, lit};
use exec::run_to_rows;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("grp", ValueType::Str),
        ("amount", ValueType::Double),
    ])
}

fn base_rows(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            vec![
                Value::Int(i * 10),
                Value::Str(format!("g{}", i % 5)),
                Value::Double(i as f64),
            ]
        })
        .collect()
}

/// Ten rounds of mixed DML with periodic flushes, ending in a checkpoint —
/// the image is compared across PDT / VDT / row store / model after every
/// single step by the harness.
#[test]
fn full_lifecycle_all_policies() {
    let mut h = DiffHarness::new("t", schema(), vec![0], base_rows(500), 64);
    for round in 0..10i64 {
        // insert a new key between existing ones
        let key = round * 50 + 5;
        h.insert(vec![
            Value::Int(key),
            Value::Str("new".into()),
            Value::Double(round as f64),
        ]);
        // delete one old key (when still present)
        let victim = round * 40;
        if let Some(rid) = h
            .model()
            .rows()
            .iter()
            .position(|r| r[0] == Value::Int(victim))
        {
            h.delete(rid);
        }
        // modify one row's amount
        if let Some(rid) = h
            .model()
            .rows()
            .iter()
            .position(|r| r[0] == Value::Int(round * 70 + 10))
        {
            h.modify(rid, 2, Value::Double(-1.0));
        }
        // periodically migrate the write layer and verify transparency
        if round % 3 == 2 {
            h.flush();
        }
    }

    // checkpoint folds everything into new stable images; the harness
    // verifies merged and clean views agree with the model
    h.checkpoint();

    // continue transacting after the checkpoint
    h.insert(vec![
        Value::Int(-1),
        Value::Str("head".into()),
        Value::Double(0.0),
    ]);
}

/// WAL-backed lifecycle: commit → crash → recover, twice, with an aborted
/// transaction in between that must leave no trace in any log.
#[test]
fn wal_backed_databases_recover_all_policies() {
    let dir = std::env::temp_dir().join(format!("pdt-e2e-recovery-{}", std::process::id()));
    let mut h = DiffHarness::with_wal(dir.clone(), "t", schema(), vec![0], base_rows(50), 64);
    h.insert(vec![
        Value::Int(7),
        Value::Str("x".into()),
        Value::Double(1.5),
    ]);
    let rid = h
        .model()
        .rows()
        .iter()
        .position(|r| r[0] == Value::Int(100))
        .unwrap();
    h.delete(rid);
    let rid = h
        .model()
        .rows()
        .iter()
        .position(|r| r[0] == Value::Int(200))
        .unwrap();
    h.modify(rid, 2, Value::Double(9.5));

    // an aborted transaction leaves no trace in any database's log
    for (_, db) in h.dbs() {
        let mut dead = db.begin();
        dead.delete_where("t", col(0).eq(lit(0i64))).unwrap();
        dead.abort();
    }

    // crash and recover: all three logs replay to the same image
    h.crash_recover();

    // keep going after recovery, then crash again
    h.insert(vec![
        Value::Int(9),
        Value::Str("y".into()),
        Value::Double(2.5),
    ]);
    h.crash_recover();

    drop(h);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a concurrently *reconciled* disjoint-column commit must
/// survive WAL recovery. The value-addressed stores flatten a Modify to
/// delete + insert — the logged post-image has to be built from the
/// reconciled committed tuple, not the transaction's stale pre-image,
/// or recovery silently loses the other writer's column.
#[test]
fn reconciled_disjoint_commits_recover_identically() {
    let schema3 = Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("a", ValueType::Int),
        ("b", ValueType::Int),
    ]);
    let rows: Vec<Tuple> = (0..10)
        .map(|i| vec![Value::Int(i * 10), Value::Int(0), Value::Int(0)])
        .collect();
    let mut recovered_images = Vec::new();
    for policy in ALL_POLICIES {
        let wal = std::env::temp_dir().join(format!(
            "pdt-e2e-reconcile-{}-{policy:?}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&wal);
        let committed;
        {
            let db = Database::with_wal(&wal).unwrap();
            db.create_table(
                columnar::TableMeta::new("t", schema3.clone(), vec![0]),
                TableOptions::default().with_policy(policy),
                rows.clone(),
            )
            .unwrap();
            let mut a = db.begin();
            let mut b = db.begin();
            a.update_where("t", col(0).eq(lit(30i64)), vec![(1, lit(111i64))])
                .unwrap();
            b.update_where("t", col(0).eq(lit(30i64)), vec![(2, lit(222i64))])
                .unwrap();
            a.commit().unwrap();
            b.commit()
                .unwrap_or_else(|e| panic!("{policy:?}: disjoint columns must reconcile: {e}"));
            let view = db.read_view();
            committed =
                run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1, 2])).unwrap());
            assert_eq!(
                committed[3],
                vec![Value::Int(30), Value::Int(111), Value::Int(222)],
                "{policy:?}: both columns land"
            );
        } // crash
        let db = Database::with_wal(&wal).unwrap();
        db.create_table(
            columnar::TableMeta::new("t", schema3.clone(), vec![0]),
            TableOptions::default().with_policy(policy),
            rows.clone(),
        )
        .unwrap();
        db.recover_from(&wal).unwrap();
        let view = db.read_view();
        let recovered =
            run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1, 2])).unwrap());
        assert_eq!(
            recovered, committed,
            "{policy:?}: recovered state must equal committed state"
        );
        recovered_images.push((policy, recovered));
        let _ = std::fs::remove_file(&wal);
    }
    for (policy, img) in &recovered_images[1..] {
        assert_eq!(
            img, &recovered_images[0].1,
            "{policy:?}: recovery must agree across backends"
        );
    }
}

#[test]
fn aggregation_queries_see_transactional_updates() {
    for policy in ALL_POLICIES {
        let db = Database::new();
        db.create_table(
            columnar::TableMeta::new("t", schema(), vec![0]),
            TableOptions::default().with_policy(policy),
            base_rows(100),
        )
        .unwrap();
        let mut txn = db.begin();
        txn.update_where("t", col(1).eq(lit("g0")), vec![(2, lit(1000.0))])
            .unwrap();
        txn.commit().unwrap();

        let view = db.read_view();
        let scan: exec::BoxOp = Box::new(
            view.scan_with("t", ScanSpec::named(["grp", "amount"]))
                .unwrap(),
        );
        let mut agg = exec::HashAggregate::new(
            scan,
            vec![0],
            vec![exec::AggSpec::new(exec::AggFunc::Sum, col(1))],
        );
        let rows = run_to_rows(&mut agg);
        let g0 = rows.iter().find(|r| r[0].as_str() == "g0").unwrap();
        assert_eq!(
            g0[1].as_double(),
            20.0 * 1000.0,
            "{policy:?}: 20 rows in g0, all modified"
        );
    }
}
