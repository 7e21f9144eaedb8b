//! Figure 17 — MergeScan: scaling and key type.
//!
//! "Figure 17 presents the results of scanning a table of 4 columns and 1
//! key column (integer or string) with updates managed by PDTs and VDTs.
//! The query used is a simple projection of all 4 columns after a varying
//! number of updates have been applied. In all cases PDT outperforms VDT by
//! at least a factor 3. Furthermore, this experiment demonstrates linear
//! scaling of query times with growing data size."
//!
//! Since the batch-first write-API redesign this bench runs through the
//! *engine*: one database per update policy, updated through the same
//! batched transactional DML (`append` / `update_col` / `delete_rids` —
//! one staging call and one WAL entry per statement), scanned through read
//! views. The figures therefore measure exactly the path a real workload
//! takes, write and read.
//!
//! We sweep table sizes (default 250k and 1M; `PDT_BENCH_LARGE=1` adds 10M,
//! matching the paper's middle panel), key types {int, string} and update
//! rates 0–2.5 per 100 tuples, and report hot scan times in ms.

use bench::{drain_scan, env_u64, BenchJson, EngineMicroLoad, KeyKind};
use columnar::{ColumnVec, Schema, Value, ValueType};
use engine::{ReadView, ScanSpec, UpdatePolicy, ALL_POLICIES};
use pdt::{Pdt, PdtMerger};
use vdt::{Vdt, VdtMerger};

fn timed_scan(view: &ReadView, proj: &[usize]) -> (u64, f64) {
    let t0 = std::time::Instant::now();
    let mut scan = view
        .scan_with("t", ScanSpec::cols(proj.to_vec()))
        .expect("scan t");
    let rows = drain_scan(&mut scan);
    (rows, t0.elapsed().as_secs_f64())
}

/// Block size used by the raw-merger microbench below (matches the
/// engine's default scan granularity).
const KERNEL_BS: usize = 4096;

/// Stable key for position `i`: even integers / zero-padded strings, so an
/// insert can always be keyed strictly between two stable neighbours.
fn stable_key(kind: KeyKind, i: u64) -> Value {
    match kind {
        KeyKind::Int => Value::Int(i as i64 * 2),
        KeyKind::Str => Value::Str(format!("k{i:09}")),
    }
}

/// A key sorting strictly between stable positions `s - 1` and `s`.
fn between_key(kind: KeyKind, s: u64) -> Value {
    match kind {
        KeyKind::Int => Value::Int(s as i64 * 2 - 1),
        // "k…(s-1)+" is a strict extension of the previous key, so it sorts
        // after it and before "k…s"
        KeyKind::Str => Value::Str(format!("k{:09}+", s - 1)),
    }
}

/// Pre-chunk the stable image: one key column + 4 int data columns per
/// block, built once outside the timed region so both paths merge the
/// exact same inputs.
fn build_blocks(n: u64, kind: KeyKind) -> (Vec<ColumnVec>, Vec<Vec<ColumnVec>>) {
    let ktype = match kind {
        KeyKind::Int => ValueType::Int,
        KeyKind::Str => ValueType::Str,
    };
    let mut keys = Vec::new();
    let mut data = Vec::new();
    let mut start = 0u64;
    while start < n {
        let len = (KERNEL_BS as u64).min(n - start) as usize;
        let mut kb = ColumnVec::new(ktype);
        for i in 0..len as u64 {
            kb.push(&stable_key(kind, start + i));
        }
        let cols: Vec<ColumnVec> = (0..4)
            .map(|c| ColumnVec::Int((0..len as i64).map(|i| start as i64 + i + c).collect()))
            .collect();
        keys.push(kb);
        data.push(cols);
        start += len as u64;
    }
    (keys, data)
}

/// The shared update script: `updates` operations at distinct, evenly
/// spaced, ascending stable positions, cycling modify / modify / delete /
/// insert-before. Returns a PDT and a VDT holding the identical logical
/// delta, so their mergers produce the same merged relation.
fn build_deltas(n: u64, kind: KeyKind, updates: u64) -> (Pdt, Vdt) {
    let ktype = match kind {
        KeyKind::Int => ValueType::Int,
        KeyKind::Str => ValueType::Str,
    };
    let schema = Schema::from_pairs(&[
        ("k", ktype),
        ("a", ValueType::Int),
        ("b", ValueType::Int),
        ("c", ValueType::Int),
        ("d", ValueType::Int),
    ]);
    let mut p = Pdt::new(schema.clone(), vec![0]);
    let mut v = Vdt::new(schema, vec![0]);
    if updates == 0 {
        return (p, v);
    }
    let stride = (n / (updates + 1)).max(1);
    // net inserts-minus-deletes applied so far: rid of stable s = s + shift
    // when every earlier op sat at a smaller position
    let mut shift = 0i64;
    for j in 0..updates {
        let s = (j + 1) * stride;
        if s >= n {
            break;
        }
        let rid = (s as i64 + shift) as u64;
        match j % 4 {
            0 | 1 => {
                let col = 1 + (j % 4) as usize;
                let val = Value::Int(-(j as i64) - 1);
                p.add_modify(rid, col, &val);
                // the VDT wants the full pre-image (it re-inserts the
                // patched tuple); mirror build_blocks' data layout
                let mut pre = vec![stable_key(kind, s)];
                pre.extend((0..4).map(|c| Value::Int(s as i64 + c)));
                v.modify(&pre, col, val);
            }
            2 => {
                p.add_delete(rid, std::slice::from_ref(&stable_key(kind, s)));
                v.delete(&[stable_key(kind, s)]);
                shift -= 1;
            }
            _ => {
                let mut t = vec![between_key(kind, s)];
                t.extend((0..4).map(|c| Value::Int(j as i64 * 10 + c)));
                p.add_insert(s, rid, &t);
                v.insert(t);
                shift += 1;
            }
        }
    }
    (p, v)
}

/// Best-of-3 wall time for one full-table merge; returns (rows, secs).
fn time_merge(mut run: impl FnMut() -> u64) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut rows = 0;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        rows = run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (rows, best)
}

/// Kernel vs enum-dispatch scalar: the raw block mergers over identical
/// pre-chunked stable blocks, no engine or I/O in the loop. This isolates
/// exactly what the typed kernels buy: run-batched `extend_range` copies
/// and prepared-key comparisons vs per-row `Value` materialization and
/// per-cell `push`.
fn kernel_vs_scalar(n: u64, json: &mut BenchJson) {
    println!(
        "# Kernel vs scalar baseline: raw block mergers, blocks of {KERNEL_BS}, 4 int data cols"
    );
    println!(
        "{:>7} {:>5} {:>8} {:>10} {:>10} {:>8}",
        "policy", "key", "upd/100", "kernel_ms", "scalar_ms", "speedup"
    );
    let proj = [1usize, 2, 3, 4];
    for &rate in &[0.5f64, 2.5] {
        let updates = (n as f64 * rate / 100.0) as u64;
        for kind in [KeyKind::Int, KeyKind::Str] {
            let (keys, data) = build_blocks(n, kind);
            let (p, v) = build_deltas(n, kind, updates);
            let new_out =
                || -> Vec<ColumnVec> { (0..4).map(|_| ColumnVec::new(ValueType::Int)).collect() };
            let run_pdt = |scalar: bool| {
                let mut m = PdtMerger::new(&p, 0);
                let mut out = new_out();
                for (bi, cols) in data.iter().enumerate() {
                    let start = (bi * KERNEL_BS) as u64;
                    let len = cols[0].len();
                    if scalar {
                        m.merge_block_scalar(start, len, &proj, cols, &mut out);
                    } else {
                        m.merge_block(start, len, &proj, cols, &mut out);
                    }
                }
                m.drain_inserts_at(n, &proj, &mut out);
                out[0].len() as u64
            };
            let run_vdt = |scalar: bool| {
                let mut m = VdtMerger::new(&v);
                let mut out = new_out();
                for (bi, cols) in data.iter().enumerate() {
                    let sk = std::slice::from_ref(&keys[bi]);
                    let len = cols[0].len();
                    if scalar {
                        m.merge_block_scalar(len, &proj, sk, cols, &mut out);
                    } else {
                        m.merge_block(len, &proj, sk, cols, &mut out);
                    }
                }
                m.drain_inserts(None, &proj, &mut out);
                out[0].len() as u64
            };
            let mut report = |policy: &str, fast: (u64, f64), slow: (u64, f64)| {
                assert_eq!(
                    fast.0, slow.0,
                    "{policy}: kernel and scalar cardinality differ"
                );
                println!(
                    "{:>7} {:>5} {:>8.1} {:>10.2} {:>10.2} {:>8.2}",
                    policy,
                    kind.label(),
                    rate,
                    fast.1 * 1e3,
                    slow.1 * 1e3,
                    slow.1 / fast.1.max(1e-9),
                );
                json.row(&[
                    ("section", "kernel_vs_scalar".into()),
                    ("policy", policy.into()),
                    ("key", kind.label().into()),
                    ("upd_per_100", rate.into()),
                    ("kernel_ms", (fast.1 * 1e3).into()),
                    ("scalar_ms", (slow.1 * 1e3).into()),
                    ("speedup", (slow.1 / fast.1.max(1e-9)).into()),
                ]);
            };
            // the PDT merger is positional — key type never enters its loop,
            // so one key kind suffices
            if kind == KeyKind::Int {
                report(
                    "pdt",
                    time_merge(|| run_pdt(false)),
                    time_merge(|| run_pdt(true)),
                );
            }
            report(
                "vdt",
                time_merge(|| run_vdt(false)),
                time_merge(|| run_vdt(true)),
            );
        }
    }
    println!("# speedup = scalar_ms / kernel_ms; both paths merge identical blocks and deltas.");
}

fn main() {
    let base = env_u64("PDT_BENCH_ROWS", 1_000_000);
    let mut json = BenchJson::new("fig17");
    kernel_vs_scalar(base, &mut json);
    let mut sizes = vec![base / 4, base];
    if env_u64("PDT_BENCH_LARGE", 0) == 1 {
        sizes.push(base * 10);
    }
    let rates = [0.0f64, 0.5, 1.0, 1.5, 2.0, 2.5];
    println!("# Figure 17: MergeScan time (ms), 4 data cols + 1 key col, project all 4 data cols");
    println!("# updates applied through the engine's batched DML; scans through read views");
    println!(
        "{:>10} {:>5} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "rows", "key", "upd/100", "clean_ms", "pdt_ms", "vdt_ms", "rows_ms", "vdt/pdt", "rows/pdt"
    );
    for &n in &sizes {
        for kind in [KeyKind::Int, KeyKind::Str] {
            // one database per policy, advanced through the same update
            // script (identical seeds → identical logical images)
            let mut loads: Vec<(UpdatePolicy, EngineMicroLoad)> = ALL_POLICIES
                .iter()
                .map(|&p| (p, EngineMicroLoad::new(n, 1, 4, kind, true, p)))
                .collect();
            let proj: Vec<usize> = vec![1, 2, 3, 4]; // the 4 data columns
            for &rate in &rates {
                let updates = (n as f64 * rate / 100.0) as u64;
                for (_, load) in loads.iter_mut() {
                    load.advance_to(updates);
                }
                let (_, clean_s) = timed_scan(&loads[0].1.db().clean_view(), &proj);
                let mut merged = Vec::with_capacity(ALL_POLICIES.len());
                for (policy, load) in &loads {
                    let (rows, secs) = timed_scan(&load.db().read_view(), &proj);
                    merged.push((*policy, rows, secs));
                }
                let by = |p: UpdatePolicy| {
                    merged
                        .iter()
                        .find(|(q, _, _)| *q == p)
                        .map(|(_, r, s)| (*r, *s))
                        .expect("policy measured")
                };
                let (prows, pdt_s) = by(UpdatePolicy::Pdt);
                let (vrows, vdt_s) = by(UpdatePolicy::Vdt);
                let (rrows, rows_s) = by(UpdatePolicy::RowStore);
                assert_eq!(prows, vrows, "merged cardinalities must agree");
                assert_eq!(prows, rrows, "merged cardinalities must agree");
                println!(
                    "{:>10} {:>5} {:>8.1} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>8.2} {:>8.2}",
                    n,
                    kind.label(),
                    rate,
                    clean_s * 1e3,
                    pdt_s * 1e3,
                    vdt_s * 1e3,
                    rows_s * 1e3,
                    vdt_s / pdt_s.max(1e-9),
                    rows_s / pdt_s.max(1e-9),
                );
                json.row(&[
                    ("section", "mergescan".into()),
                    ("rows", n.into()),
                    ("key", kind.label().into()),
                    ("upd_per_100", rate.into()),
                    ("clean_ms", (clean_s * 1e3).into()),
                    ("pdt_ms", (pdt_s * 1e3).into()),
                    ("vdt_ms", (vdt_s * 1e3).into()),
                    ("rows_ms", (rows_s * 1e3).into()),
                    ("vdt_over_pdt", (vdt_s / pdt_s.max(1e-9)).into()),
                    ("rows_over_pdt", (rows_s / pdt_s.max(1e-9)).into()),
                ]);
            }
        }
    }
    println!(
        "# expectation (paper): VDT/PDT >= ~3x at nonzero update rates; string keys widen the gap;"
    );
    println!("# both scale linearly in table size; PDT cost barely grows with update rate.");
    println!("# the row-store baseline pays the same key I/O + comparisons as the VDT.");
    json.finish();
}
