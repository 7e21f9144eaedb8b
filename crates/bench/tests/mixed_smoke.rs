//! CI smoke test for the mixed-workload driver: a fixed-seed run with
//! 2 query sessions + 1 refresh session against a partitioned database
//! with background maintenance on, checked for *correctness* (the
//! concurrent run's final table images equal a sequentially refreshed
//! reference) and for metrics plumbing — no wall-clock assertions.

use bench::mixed::{run_mixed_with_db, MixedConfig};
use engine::{ScanSpec, TableOptions, UpdatePolicy};
use exec::run_to_rows;
use tpch::{apply_rf1, apply_rf2, generate, load_database, RefreshStreams};

fn image(db: &engine::Database, table: &str) -> Vec<columnar::Tuple> {
    let view = db.read_view();
    let ncols = view.table(table).unwrap().schema().len();
    let mut scan = view
        .scan_with(table, ScanSpec::cols((0..ncols).collect()))
        .unwrap();
    run_to_rows(&mut scan)
}

#[test]
fn mixed_workload_smoke() {
    let cfg = MixedConfig {
        sf: 0.005,
        partitions: 2,
        policy: UpdatePolicy::Pdt,
        query_sessions: 2,
        refresh_sessions: 1,
        query_ids: vec![1, 6],
        queries_per_session: 3,
        refresh_batch: 16,
        ..MixedConfig::default()
    };
    let (report, db) = run_mixed_with_db(&cfg);

    // every session ran its share
    assert_eq!(report.queries.ops, 6, "2 sessions x 3 queries");
    assert!(report.refresh.ops > 0, "refresh committed");
    assert_eq!(
        report.metrics.total_queries(),
        6,
        "registry saw every query"
    );
    assert_eq!(report.metrics.total_commits(), report.refresh.ops);
    let ql = report.queries.latency.expect("query latency recorded");
    assert_eq!(ql.count, 6);
    assert!(ql.p50_ns <= ql.p99_ns);
    let rl = report.refresh.latency.expect("refresh latency recorded");
    assert_eq!(rl.count as u64, report.refresh.ops);
    // per-label query latency reached the shared registry: each of the
    // 2 sessions cycles q01, q06, q01
    for (label, runs) in [("q01", 4), ("q06", 2)] {
        let t = report
            .metrics
            .tables
            .iter()
            .find(|t| t.name == label)
            .unwrap_or_else(|| panic!("missing label {label}"));
        assert_eq!(t.scan_latency.as_ref().unwrap().count, runs);
    }
    // both refreshed tables saw every refresh commit
    for table in ["orders", "lineitem"] {
        let t = report
            .metrics
            .tables
            .iter()
            .find(|t| t.name == table)
            .unwrap_or_else(|| panic!("missing table {table}"));
        assert_eq!(t.counters.commits, report.refresh.ops);
    }
    assert!(
        report.maintenance.is_some(),
        "scheduler ran (maintenance on)"
    );

    // with one refresh session the committed write set is deterministic:
    // the final image must equal a sequentially refreshed reference
    let data = generate(cfg.sf);
    let streams = RefreshStreams::build(&data, cfg.refresh_fraction);
    let reference = load_database(
        &data,
        TableOptions::default().with_policy(UpdatePolicy::Pdt),
    );
    apply_rf1(&reference, &streams, cfg.refresh_batch).unwrap();
    apply_rf2(&reference, &streams, cfg.refresh_batch).unwrap();
    for table in ["orders", "lineitem"] {
        assert_eq!(
            image(&db, table),
            image(&reference, table),
            "{table} image diverged from the sequential reference"
        );
    }
}
