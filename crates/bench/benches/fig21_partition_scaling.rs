//! Figure 21 (ours) — partition-parallel MergeScan and bulk-append
//! scaling.
//!
//! The paper's positional-delta design is per-fragment by construction: a
//! PDT indexes updates against one stable image. Horizontal range
//! partitioning gives each partition its own stable slice and update
//! structure, which buys two things this bench quantifies across
//! 1/2/4/8 partitions for all three backends:
//!
//! * **MergeScan throughput** — `ReadView::par_scan` runs each
//!   partition's MergeScan on a worker pool (the first scan path using
//!   more than one core; Krueger et al. report exactly this multi-core
//!   merge win). The sequential union (`scan_with`) is reported alongside
//!   as the single-core reference; the acceptance bar is par ≥ 2× the
//!   1-partition baseline at ≥ 4 partitions.
//! * **Bulk-append throughput** — batch appends split by key range and
//!   each partition ranks only its own slice against a smaller image.
//!
//! Scale knobs: `PDT_BENCH_ROWS` (default 1_000_000 rows, 1 int key +
//! 4 data columns, ~1 % of rows updated before scanning).

use bench::{between_key, env_u64, BenchJson, EngineMicroLoad, KeyKind};
use columnar::Value;
use engine::{ReadView, ScanSpec, ALL_POLICIES};
use exec::Operator;

const NDATA: usize = 4;

/// Drain the sequential union scan; rows/sec.
fn seq_scan_rate(view: &ReadView, proj: Vec<usize>) -> f64 {
    let t0 = std::time::Instant::now();
    let mut scan = view.scan_with("t", ScanSpec::cols(proj)).expect("scan t");
    let mut rows = 0u64;
    while let Some(b) = scan.next_batch() {
        rows += b.num_rows() as u64;
    }
    rows as f64 / t0.elapsed().as_secs_f64()
}

/// Drain the partition-parallel union scan; rows/sec.
fn par_scan_rate(view: &ReadView, proj: Vec<usize>) -> f64 {
    let t0 = std::time::Instant::now();
    let mut scan = view
        .par_scan("t", ScanSpec::cols(proj))
        .expect("par scan t");
    let mut rows = 0u64;
    while let Some(b) = scan.next_batch() {
        rows += b.num_rows() as u64;
    }
    rows as f64 / t0.elapsed().as_secs_f64()
}

/// One committed bulk append of `count` fresh odd-keyed rows (gaps
/// reserved through the loader, so they collide with nothing); rows/sec.
fn append_rate(load: &mut EngineMicroLoad, count: u64) -> f64 {
    let gaps = load.fresh_gaps(count);
    let db = load.db();
    let types = db.schema("t").expect("t").types();
    let mut rows = exec::Batch::with_capacity(&types, gaps.len());
    for g in gaps {
        // gaps are uniform over the key range → every partition is hit
        let mut t = between_key(g, 1, KeyKind::Int);
        for c in 0..NDATA {
            t.push(Value::Int(c as i64));
        }
        rows.push_owned_row(t);
    }
    let t0 = std::time::Instant::now();
    let mut txn = db.begin();
    let n = txn.append("t", rows).expect("bench append");
    txn.commit().expect("bench append commit");
    n as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let n = env_u64("PDT_BENCH_ROWS", 1_000_000);
    let updates = n / 100;
    let append_rows = (n / 50).max(64);
    let proj: Vec<usize> = (1..=NDATA).collect();
    println!("# Figure 21: partition scaling — MergeScan (sequential vs worker-pool union) and bulk append");
    println!(
        "# {n} rows, 1 int key + {NDATA} data cols, ~1% updated; append batch = {append_rows} rows"
    );
    println!(
        "{:>10} {:>6} {:>8} {:>12} {:>12} {:>9} {:>12}",
        "policy", "parts", "rows", "seq_Mrows/s", "par_Mrows/s", "par/1p", "append_Mr/s"
    );
    let mut json = BenchJson::new("fig21");
    for policy in ALL_POLICIES {
        let mut baseline = None;
        for &parts in &[1usize, 2, 4, 8] {
            let mut load =
                EngineMicroLoad::new_partitioned(n, 1, NDATA, KeyKind::Int, true, policy, parts);
            load.advance_to(updates);
            let view = load.db().read_view();
            // warm the block cache paths once, then measure
            let _ = seq_scan_rate(&view, proj.clone());
            let seq = seq_scan_rate(&view, proj.clone());
            let par = par_scan_rate(&view, proj.clone());
            let base = *baseline.get_or_insert(par);
            let append = append_rate(&mut load, append_rows);
            println!(
                "{:>10} {:>6} {:>8} {:>12.2} {:>12.2} {:>9.2} {:>12.2}",
                format!("{policy:?}"),
                parts,
                n,
                seq / 1e6,
                par / 1e6,
                par / base,
                append / 1e6,
            );
            json.row(&[
                ("policy", format!("{policy:?}").into()),
                ("parts", parts.into()),
                ("rows", n.into()),
                ("seq_mrows_per_s", (seq / 1e6).into()),
                ("par_mrows_per_s", (par / 1e6).into()),
                ("par_over_1p", (par / base).into()),
                ("append_mrows_per_s", (append / 1e6).into()),
            ]);
        }
    }
    println!("# acceptance: par/1p ≥ 2.0 at parts ≥ 4 (partition-parallel MergeScan)");
    json.finish();
}
