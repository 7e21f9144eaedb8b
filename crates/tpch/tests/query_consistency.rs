//! The workspace's strongest end-to-end check: after applying the TPC-H
//! refresh streams *through the one unified transactional API*, every one
//! of the 22 queries must return identical results under
//!
//! 1. a PDT-maintained database (positional delta merging),
//! 2. a VDT-maintained database (value-based delta merging),
//! 3. a clean scan of the checkpointed images (all deltas materialised).
//!
//! Any bug in the PDT tree, the merge operators, the sparse-index ghost
//! semantics, the executor, the `DeltaStore` commit protocol, or the
//! refresh logic shows up as a diff here.

use columnar::Tuple;
use engine::{Database, TableOptions, UpdatePolicy};
use tpch::queries::{run_query, QUERY_IDS};
use tpch::{apply_rf1, apply_rf2, RefreshStreams};

const SF: f64 = 0.004;

fn opts(policy: UpdatePolicy) -> TableOptions {
    TableOptions {
        block_rows: 512,
        policy,
        ..TableOptions::default()
    }
}

/// Compare result sets with a tolerance for floating-point aggregation
/// order (hash aggregation sums in arbitrary order).
fn assert_rows_close(q: usize, a: &[Tuple], b: &[Tuple], what: &str) {
    assert_eq!(a.len(), b.len(), "Q{q}: row count differs ({what})");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "Q{q} row {i}: arity differs ({what})");
        for (va, vb) in ra.iter().zip(rb) {
            match (va, vb) {
                (columnar::Value::Double(x), columnar::Value::Double(y)) => {
                    let tol = 1e-6 * (1.0 + x.abs().max(y.abs()));
                    assert!((x - y).abs() <= tol, "Q{q} row {i}: {x} vs {y} ({what})");
                }
                _ => assert_eq!(va, vb, "Q{q} row {i} ({what})"),
            }
        }
    }
}

#[test]
fn all_queries_agree_across_update_structures() {
    let data = tpch::generate(SF);
    let streams = RefreshStreams::build(&data, 1.0);

    let pdt_db: Database = tpch::load_database(&data, opts(UpdatePolicy::Pdt));
    let vdt_db: Database = tpch::load_database(&data, opts(UpdatePolicy::Vdt));
    for db in [&pdt_db, &vdt_db] {
        apply_rf1(db, &streams, 128).expect("RF1");
        apply_rf2(db, &streams, 128).expect("RF2");
    }

    // run everything under the PDT and VDT databases' views
    let pdt_view = pdt_db.read_view();
    let vdt_view = vdt_db.read_view();
    let mut pdt_results = Vec::new();
    for n in QUERY_IDS {
        let p = run_query(n, &pdt_view, SF);
        let v = run_query(n, &vdt_view, SF);
        assert_rows_close(n, &p, &v, "PDT vs VDT");
        pdt_results.push(p);
    }
    drop(pdt_view);
    drop(vdt_view);

    // checkpoint both updated tables in both databases and re-run clean
    for db in [&pdt_db, &vdt_db] {
        assert!(db.checkpoint("orders").expect("checkpoint orders"));
        assert!(db.checkpoint("lineitem").expect("checkpoint lineitem"));
    }
    for (db, what) in [
        (&pdt_db, "PDT vs checkpointed clean"),
        (&vdt_db, "VDT vs checkpointed clean"),
    ] {
        let clean_view = db.clean_view();
        for (i, n) in QUERY_IDS.into_iter().enumerate() {
            let c = run_query(n, &clean_view, SF);
            assert_rows_close(n, &pdt_results[i], &c, what);
        }
    }
}

#[test]
fn flushed_write_pdt_preserves_query_results() {
    // after Propagate (Write-PDT → Read-PDT) results must be unchanged
    let data = tpch::generate(0.002);
    let streams = RefreshStreams::build(&data, 1.0);
    let db = tpch::load_database(&data, opts(UpdatePolicy::Pdt));
    apply_rf1(&db, &streams, 64).unwrap();
    apply_rf2(&db, &streams, 64).unwrap();

    let before: Vec<Vec<Tuple>> = {
        let view = db.read_view();
        QUERY_IDS
            .iter()
            .map(|&n| run_query(n, &view, 0.002))
            .collect()
    };
    assert!(db.maybe_flush("orders", 0).unwrap());
    assert!(db.maybe_flush("lineitem", 0).unwrap());
    let view = db.read_view();
    for (i, &n) in QUERY_IDS.iter().enumerate() {
        let after = run_query(n, &view, 0.002);
        assert_rows_close(n, &before[i], &after, "before vs after flush");
    }
}
