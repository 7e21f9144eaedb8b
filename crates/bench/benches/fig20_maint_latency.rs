//! Figure 20 (ours) — scan latency under background maintenance.
//!
//! The point of the layered design (§3.3) and of the maintenance
//! scheduler built on it: flushes, checkpoints, and compaction run in
//! the background, so query latency must stay flat while they fire.
//! This bench measures repeated full-table scans against a **skewed**
//! update stream (90% of the churn lands on 10% of the key space) for
//! each update policy, in three maintenance modes:
//!
//! * **off** — no maintenance: deltas accumulate unboundedly, every scan
//!   pays an ever-growing merge;
//! * **whole** — the `MaintenanceScheduler` with aggressive byte budgets
//!   flushes and whole-partition-checkpoints concurrently; every
//!   checkpoint rewrites the entire stable image;
//! * **incr** — checkpoints are priced out (huge threshold) and the
//!   heat-driven compaction worker retires the delta instead, rewriting
//!   only the block ranges the skewed churn actually touched.
//!
//! Reported: scans' p50/p95/p99/max latency (µs), the maintenance
//! counters, and **w-amp** — stable bytes written per delta byte
//! retired, the write-amplification the incremental path exists to cut.
//! Knobs: `PDT_BENCH_MAINT_ROWS` (table rows, default 20_000),
//! `PDT_BENCH_MAINT_SCANS` (scans per mode, default 60),
//! `PDT_BENCH_MAINT_OPS` (update transactions, default 1_500).

use bench::{env_u64, BenchJson};
use columnar::{Schema, TableMeta, Tuple, Value, ValueType};
use engine::{
    CompactionConfig, Database, MaintenanceConfig, MaintenanceScheduler, ScanSpec, TableOptions,
    UpdatePolicy, ALL_POLICIES,
};
use exec::expr::{col, lit};
use exec::{LatencyStats, Operator};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tpch::gen::Rng;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No scheduler at all.
    Off,
    /// Flush + whole-partition checkpoints (compaction disabled).
    Whole,
    /// Flush + incremental compaction (checkpoints priced out).
    Incremental,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Whole => "whole",
            Mode::Incremental => "incr",
        }
    }
}

fn build_db(policy: UpdatePolicy, rows: u64, mode: Mode) -> Arc<Database> {
    let schema = Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("a", ValueType::Int),
        ("b", ValueType::Int),
    ]);
    // incompressible payload columns: a whole-image rewrite must pay
    // real bytes, like it would on non-synthetic data
    let mut rng = Rng::new(7);
    let base: Vec<Tuple> = (0..rows as i64)
        .map(|i| {
            vec![
                Value::Int(i * 4),
                Value::Int(rng.below(u64::MAX >> 2) as i64),
                Value::Int(rng.below(u64::MAX >> 2) as i64),
            ]
        })
        .collect();
    let mut opts = TableOptions::default()
        .with_policy(policy)
        .with_block_rows(1024)
        // aggressive budgets so maintenance fires many times per run
        .with_flush_threshold(16 << 10)
        .with_checkpoint_threshold(64 << 10);
    if mode == Mode::Incremental {
        // retire the delta through sub-partition compaction only: price
        // whole-partition checkpoints out and let the heat map steer
        opts = opts
            .with_checkpoint_threshold(usize::MAX >> 1)
            .with_compaction(CompactionConfig {
                enabled: true,
                max_unit_blocks: 4,
                // let a hot range bank a real budget before paying the
                // fixed per-step write cost (heat counts raw staged value
                // bytes, so this is far lower than the structural
                // checkpoint threshold it replaces)
                min_delta_bytes: 8 << 10,
                min_score_permille: 0,
            });
    }
    let db = Database::new();
    db.create_table(TableMeta::new("t", schema, vec![0]), opts, base)
        .unwrap();
    Arc::new(db)
}

/// One full-table scan, timed.
fn timed_scan(db: &Database, lat: &LatencyStats) -> usize {
    lat.measure(|| {
        let view = db.read_view();
        let mut scan = view.scan_with("t", ScanSpec::cols(vec![1])).unwrap();
        let mut rows = 0usize;
        while let Some(b) = scan.next_batch() {
            rows += b.num_rows();
        }
        rows
    })
}

struct ModeResult {
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    max_us: f64,
    flushes: u64,
    checkpoints: u64,
    compactions: u64,
    blocks_reused: u64,
    /// Stable bytes written per delta byte retired (write amplification).
    w_amp: Option<f64>,
}

fn run_mode(policy: UpdatePolicy, rows: u64, scans: u64, ops: u64, mode: Mode) -> ModeResult {
    let db = build_db(policy, rows, mode);
    let scheduler = (mode != Mode::Off).then(|| {
        MaintenanceScheduler::start(
            db.clone(),
            MaintenanceConfig::with_tick(Duration::from_millis(1)),
        )
    });
    let lat = LatencyStats::new();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let db_w = &db;
        let done = &done;
        let writer = s.spawn(move || {
            let mut rng = Rng::new(20);
            let span = rows * 4;
            for i in 0..ops {
                let mut t = db_w.begin();
                // skewed churn: 90% of transactions land in the lowest
                // 10% of the key space, the rest are uniform
                let key = if rng.below(10) < 9 {
                    rng.below(span / 10) as i64
                } else {
                    rng.below(span) as i64
                };
                if i % 2 == 0 {
                    // update an existing stable row's payload in place
                    let k = (key / 4) * 4;
                    let _ = t.update_where("t", col(0).eq(lit(k)), vec![(2, lit(i as i64))]);
                } else {
                    // odd keys are always free: base keys are multiples of 4
                    let fresh = (key | 1) + (i as i64 % 2) * 2;
                    let _ = t.insert("t", vec![Value::Int(fresh), Value::Int(0), Value::Int(1)]);
                }
                match t.commit() {
                    Ok(_) => {}
                    Err(e) => panic!("writer commit failed: {e}"),
                }
            }
            done.store(true, Ordering::Release);
        });
        // scans paced across the writer's lifetime, then a fixed tail
        let mut remaining = scans;
        while !done.load(Ordering::Acquire) && remaining > 0 {
            timed_scan(&db, &lat);
            remaining -= 1;
        }
        while remaining > 0 {
            timed_scan(&db, &lat);
            remaining -= 1;
        }
        writer.join().expect("writer");
    });
    // read the counters *before* drain: drain's whole-partition
    // checkpoints would pollute the incremental mode's write totals
    let (flushes, checkpoints, compactions, blocks_reused, w_amp) = scheduler
        .map(|s| {
            let st = s.stats();
            s.drain().expect("drain");
            let w_amp = (st.delta_bytes_retired > 0)
                .then(|| st.stable_bytes_written as f64 / st.delta_bytes_retired as f64);
            (
                st.flushes,
                st.checkpoints,
                st.compactions,
                st.compaction_blocks_reused,
                w_amp,
            )
        })
        .unwrap_or((0, 0, 0, 0, None));
    let sum = lat.summary().expect("scans recorded");
    ModeResult {
        p50_us: sum.p50_ns as f64 / 1e3,
        p95_us: sum.p95_ns as f64 / 1e3,
        p99_us: sum.p99_ns as f64 / 1e3,
        max_us: sum.max_ns as f64 / 1e3,
        flushes,
        checkpoints,
        compactions,
        blocks_reused,
        w_amp,
    }
}

fn main() {
    let rows = env_u64("PDT_BENCH_MAINT_ROWS", 20_000);
    let scans = env_u64("PDT_BENCH_MAINT_SCANS", 60);
    let ops = env_u64("PDT_BENCH_MAINT_OPS", 1_500);
    println!("# Figure 20: full-scan latency under a skewed update stream (90/10),");
    println!("# maintenance off vs whole-partition checkpoints vs incremental");
    println!("# compaction ({rows} rows, {ops} txns, {scans} scans);");
    println!("# w-amp = stable bytes written per delta byte retired");
    println!(
        "{:>9} {:>6} {:>10} {:>10} {:>10} {:>10} {:>8} {:>6} {:>8} {:>8} {:>7}",
        "policy",
        "maint",
        "p50 (µs)",
        "p95 (µs)",
        "p99 (µs)",
        "max (µs)",
        "flushes",
        "ckpts",
        "compacts",
        "reused",
        "w-amp"
    );
    let mut json = BenchJson::new("fig20");
    for policy in ALL_POLICIES {
        for mode in [Mode::Off, Mode::Whole, Mode::Incremental] {
            let r = run_mode(policy, rows, scans, ops, mode);
            println!(
                "{:>9} {:>6} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8} {:>6} {:>8} {:>8} {:>7}",
                format!("{policy:?}"),
                mode.label(),
                r.p50_us,
                r.p95_us,
                r.p99_us,
                r.max_us,
                r.flushes,
                r.checkpoints,
                r.compactions,
                r.blocks_reused,
                r.w_amp
                    .map(|w| format!("{w:.1}"))
                    .unwrap_or_else(|| "-".into()),
            );
            json.row(&[
                ("policy", format!("{policy:?}").into()),
                ("maint", mode.label().into()),
                ("p50_us", r.p50_us.into()),
                ("p95_us", r.p95_us.into()),
                ("p99_us", r.p99_us.into()),
                ("max_us", r.max_us.into()),
                ("flushes", r.flushes.into()),
                ("checkpoints", r.checkpoints.into()),
                ("compactions", r.compactions.into()),
                ("blocks_reused", r.blocks_reused.into()),
                ("w_amp", r.w_amp.unwrap_or(f64::NAN).into()),
            ]);
        }
    }
    json.finish();
}
