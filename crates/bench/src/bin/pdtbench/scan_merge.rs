//! `scan_merge`: the read path alone. Four tables of identical base rows
//! (`k` sort key, `v0..v3` payloads, compressed, 4096-row blocks, one
//! partition, no maintenance) receive a seeded update script — a third
//! inserts, a third modifies, a third deletes, 1 % of the rows — through
//! batch DML. One client then scans the lanes round-robin, projecting
//! `v0..v3`:
//!
//! * `clean`    — the stable image of the PDT table (`clean_view`),
//! * `pdt`      — PDT policy, updates at uniform positions,
//! * `pdt_skew` — PDT policy, the same op count confined to the top 10 %
//!   of the key range (90 % of blocks stay untouched),
//! * `vdt`, `rows` — the value-based baselines under the uniform script.
//!
//! The traced run adds the ladder below the engine scan: block decode
//! alone, and the three raw mergers over pre-decoded blocks and the same
//! deltas.

use crate::common::{ms, repeat_setup, spin_ms, Measured, PhaseClock, RunConfig};
use crate::model::{mix, Fingerprint, Rng};
use crate::stats::median;
use crate::trace::Tracer;
use columnar::{ColumnVec, Schema, TableMeta, Value, ValueType};
use engine::{Database, ScanSpec, TableOptions, UpdatePolicy};
use exec::{Batch, Operator};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

const TABLE: &str = "t";
/// Scans project the four payload columns; `v0` is the one modifies hit.
const PROJ: [usize; 4] = [1, 2, 3, 4];
const V0: usize = 1;
const CHUNKS: usize = 4;
const LANES: [&str; 5] = ["clean", "pdt", "pdt_skew", "vdt", "rows"];

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("v0", ValueType::Int),
        ("v1", ValueType::Int),
        ("v2", ValueType::Int),
        ("v3", ValueType::Int),
    ])
}

/// Stable row `i`: even key, then a near-sequential column, a
/// low-cardinality one, an incompressible one and one of short runs — so
/// the block encodings scans decode are not all the same.
fn base_row(i: u64, seed: u64) -> [i64; 5] {
    [
        i as i64 * 2,
        i as i64 * 31 + (seed % 1000) as i64,
        (mix(i ^ seed.rotate_left(17)) % 97) as i64,
        (mix(i.wrapping_add(seed << 32)) >> 20) as i64,
        (i / 7) as i64 + (seed & 0xff) as i64,
    ]
}

fn tuple(row: &[i64]) -> Vec<Value> {
    row.iter().map(|&v| Value::Int(v)).collect()
}

/// One transaction of the update script. Inserts land in distinct gaps
/// between stable rows (odd keys); modifies and deletes pick distinct
/// stable rows, never the same row twice in the whole script.
struct Chunk {
    /// `(gap g, row)`: key `2g + 1`, between stable rows `g` and `g + 1`.
    ins: Vec<(u64, [i64; 5])>,
    /// `(stable row, new v0)`.
    mods: Vec<(u64, i64)>,
    dels: Vec<u64>,
}

/// `ops` updates spread over [`CHUNKS`] transactions, all inside stable
/// rows `[lo, hi)`.
fn script(rng: &mut Rng, lo: u64, hi: u64, ops: usize) -> Vec<Chunk> {
    let mut used_gaps = HashSet::new();
    let mut used_rows = HashSet::new();
    let fresh = |used: &mut HashSet<u64>, rng: &mut Rng| loop {
        let x = lo + rng.below(hi - lo);
        if used.insert(x) {
            return x;
        }
    };
    let per_kind = ops / 3 / CHUNKS;
    (0..CHUNKS)
        .map(|_| {
            let mut ins: Vec<(u64, [i64; 5])> = (0..per_kind)
                .map(|_| {
                    let g = fresh(&mut used_gaps, rng);
                    let mut row = [g as i64 * 2 + 1, 0, 0, 0, 0];
                    row[1..].fill_with(|| rng.payload() >> 16);
                    (g, row)
                })
                .collect();
            let mut mods: Vec<(u64, i64)> = (0..per_kind)
                .map(|_| (fresh(&mut used_rows, rng), rng.payload() >> 16))
                .collect();
            let mut dels: Vec<u64> = (0..per_kind).map(|_| fresh(&mut used_rows, rng)).collect();
            ins.sort_unstable();
            mods.sort_unstable();
            dels.sort_unstable();
            Chunk { ins, mods, dels }
        })
        .collect()
}

/// Where keys sit in the visible image while a script is applied: the gaps
/// filled and stable rows deleted so far, both ascending.
#[derive(Default)]
struct Positions {
    ins: Vec<u64>,
    del: Vec<u64>,
}

impl Positions {
    /// RID of live stable row `s`: its index, plus the gaps filled before
    /// it, minus the stable rows deleted before it.
    fn rid_of_stable(&self, s: u64) -> u64 {
        let before = |v: &[u64]| v.partition_point(|&x| x < s) as u64;
        s + before(&self.ins) - before(&self.del)
    }

    /// RID a row inserted into gap `g` receives: where stable row `g + 1`
    /// stands (or would stand).
    fn rid_of_gap(&self, g: u64) -> u64 {
        self.rid_of_stable(g + 1)
    }

    fn add(v: &mut Vec<u64>, x: u64) {
        let at = v.partition_point(|&y| y < x);
        v.insert(at, x);
    }
}

/// Apply the script through batch DML, one transaction per chunk.
fn apply_engine(db: &Database, chunks: &[Chunk]) {
    let types = schema().types();
    let mut pos = Positions::default();
    for c in chunks {
        let mut txn = db.begin();
        let mut rows = Batch::with_capacity(&types, c.ins.len());
        for (g, row) in &c.ins {
            rows.push_owned_row(tuple(row));
            Positions::add(&mut pos.ins, *g);
        }
        txn.append(TABLE, rows).expect("append");
        // the transaction sees its own inserts; its deletes are addressed
        // against the image before the delete statement
        let rids: Vec<u64> = c.mods.iter().map(|(s, _)| pos.rid_of_stable(*s)).collect();
        let vals = ColumnVec::Int(c.mods.iter().map(|(_, v)| *v).collect());
        txn.update_col(TABLE, &rids, V0, vals).expect("update_col");
        let rids: Vec<u64> = c.dels.iter().map(|s| pos.rid_of_stable(*s)).collect();
        txn.delete_rids(TABLE, &rids).expect("delete_rids");
        txn.commit().expect("commit");
        for s in &c.dels {
            Positions::add(&mut pos.del, *s);
        }
    }
}

/// The image the script must produce, computed without the engine.
fn expected(n: u64, seed: u64, chunks: &[Chunk]) -> Fingerprint {
    let ins: HashMap<u64, &[i64; 5]> = chunks
        .iter()
        .flat_map(|c| c.ins.iter().map(|(g, row)| (*g, row)))
        .collect();
    let mods: HashMap<u64, i64> = chunks.iter().flat_map(|c| c.mods.iter().copied()).collect();
    let dels: HashSet<u64> = chunks.iter().flat_map(|c| c.dels.iter().copied()).collect();
    let mut fp = Fingerprint::new(PROJ.len());
    let mut push = |row: &[i64; 5]| {
        fp.rows += 1;
        for (k, &c) in PROJ.iter().enumerate() {
            fp.push_int(k, row[c]);
        }
    };
    for i in 0..n {
        if !dels.contains(&i) {
            let mut row = base_row(i, seed);
            if let Some(v) = mods.get(&i) {
                row[V0] = *v;
            }
            push(&row);
        }
        if let Some(row) = ins.get(&i) {
            push(row);
        }
    }
    fp
}

struct Lanes {
    n: u64,
    pdt: Database,
    pdt_skew: Database,
    vdt: Database,
    rows: Database,
    uniform: Vec<Chunk>,
    skew: Vec<Chunk>,
}

impl Lanes {
    fn db(&self, lane: &str) -> &Database {
        match lane {
            "clean" | "pdt" => &self.pdt,
            "pdt_skew" => &self.pdt_skew,
            "vdt" => &self.vdt,
            _ => &self.rows,
        }
    }
}

fn setup(cfg: &RunConfig) -> Lanes {
    let n = cfg.scale.pick(500_000u64, 100_000, 12_000);
    let base: Vec<Vec<Value>> = (0..n).map(|i| tuple(&base_row(i, cfg.seed))).collect();
    let ops = (n / 100) as usize;
    let mut rng = Rng::new(cfg.seed);
    let uniform = script(&mut rng, 0, n, ops);
    let skew = script(&mut rng, n - n / 10, n, ops);
    let load = |policy: UpdatePolicy, chunks: &[Chunk]| {
        let db = Database::new();
        db.create_table(
            TableMeta::new(TABLE, schema(), vec![0]),
            TableOptions::default().with_policy(policy),
            base.clone(),
        )
        .expect("bulk load");
        apply_engine(&db, chunks);
        db
    };
    Lanes {
        n,
        pdt: load(UpdatePolicy::Pdt, &uniform),
        pdt_skew: load(UpdatePolicy::Pdt, &skew),
        vdt: load(UpdatePolicy::Vdt, &uniform),
        rows: load(UpdatePolicy::RowStore, &uniform),
        uniform,
        skew,
    }
}

/// One full scan of a lane; returns the rows it produced.
fn scan_lane(lanes: &Lanes, lane: &'static str, tr: &Tracer) -> u64 {
    let db = lanes.db(lane);
    let view = tr.call("engine.open_view", || match lane {
        "clean" => db.clean_view(),
        _ => db.read_view(),
    });
    let mut scan = tr.call("engine.scan_with", || {
        view.scan_with(TABLE, ScanSpec::cols(PROJ.to_vec()))
            .expect("scan")
    });
    tr.call("exec.scan_drain", || {
        let mut rows = 0u64;
        while let Some(b) = scan.next_batch() {
            rows += b.num_rows() as u64;
            black_box(&b);
        }
        rows
    })
}

#[derive(Default)]
struct LaneSamples {
    ms: [Vec<f64>; 5],
    spin_ms: Vec<f64>,
    scans: u64,
    wrong_count: u64,
}

/// Scan the lanes round-robin for `seconds` (at least three rounds).
fn measure(lanes: &Lanes, want_rows: &[u64; 5], seconds: f64, tr: &Tracer) -> LaneSamples {
    let mut s = LaneSamples::default();
    let t0 = Instant::now();
    while s.ms[0].len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        s.spin_ms.push(spin_ms());
        for (l, lane) in LANES.iter().enumerate() {
            tr.next_op();
            let t = Instant::now();
            let rows = scan_lane(lanes, lane, tr);
            s.ms[l].push(ms(t.elapsed()));
            s.scans += 1;
            s.wrong_count += (rows != want_rows[l]) as u64;
        }
    }
    s
}

/// Fingerprint every lane and hold it to the model and to its siblings.
fn verify(lanes: &Lanes, seed: u64, m: &mut Measured) -> [u64; 5] {
    let want_clean = expected(lanes.n, seed, &[]);
    let want_uniform = expected(lanes.n, seed, &lanes.uniform);
    let want_skew = expected(lanes.n, seed, &lanes.skew);
    let mut rows = [0u64; 5];
    for (l, lane) in LANES.iter().enumerate() {
        let db = lanes.db(lane);
        let view = if *lane == "clean" {
            db.clean_view()
        } else {
            db.read_view()
        };
        let mut scan = view
            .scan_with(TABLE, ScanSpec::cols(PROJ.to_vec()))
            .expect("scan");
        let got = Fingerprint::of_scan(&mut scan, PROJ.len());
        let want = match *lane {
            "clean" => &want_clean,
            "pdt_skew" => &want_skew,
            _ => &want_uniform,
        };
        rows[l] = want.rows;
        m.check(got == *want, || {
            format!("lane {lane}: image differs from the model")
        });
    }
    rows
}

// ---------------------------------------------------------------------
// The ladder below the engine scan (traced runs).

/// The script applied one update at a time to raw delta structures, the
/// way the engine's staging does it but with no engine around.
struct RawDeltas {
    pdt: pdt::Pdt,
    vdt: vdt::Vdt,
    rows: rowstore::RowBuffer,
    /// Nanoseconds per PDT tree update while building `pdt`.
    pdt_update_ns: f64,
}

fn apply_pdt(p: &mut pdt::Pdt, pos: &mut Positions, c: &Chunk) {
    for (g, row) in &c.ins {
        let rid = pos.rid_of_gap(*g);
        let t = tuple(row);
        let sid = p.sk_rid_to_sid(&t[..1], rid);
        p.add_insert(sid, rid, &t);
        Positions::add(&mut pos.ins, *g);
    }
    for (s, v) in &c.mods {
        p.add_modify(pos.rid_of_stable(*s), V0, &Value::Int(*v));
    }
    for s in &c.dels {
        p.add_delete(pos.rid_of_stable(*s), &[Value::Int(*s as i64 * 2)]);
        Positions::add(&mut pos.del, *s);
    }
}

fn raw_deltas(chunks: &[Chunk], seed: u64) -> RawDeltas {
    let sk = vec![0usize];
    let mut p = pdt::Pdt::new(schema(), sk.clone());
    let mut pos = Positions::default();
    let t0 = Instant::now();
    for c in chunks {
        apply_pdt(&mut p, &mut pos, c);
    }
    let ops: usize = chunks
        .iter()
        .map(|c| c.ins.len() + c.mods.len() + c.dels.len())
        .sum();
    let pdt_update_ns = t0.elapsed().as_nanos() as f64 / ops.max(1) as f64;
    let mut v = vdt::Vdt::new(schema(), sk.clone());
    let mut r = rowstore::RowBuffer::new(schema(), sk);
    for c in chunks {
        for (_, row) in &c.ins {
            v.insert(tuple(row));
            r.insert(tuple(row));
        }
        for (s, val) in &c.mods {
            let pre = tuple(&base_row(*s, seed));
            v.modify(&pre, V0, Value::Int(*val));
            r.modify(&pre, V0, Value::Int(*val));
        }
        for s in &c.dels {
            let key = [Value::Int(*s as i64 * 2)];
            v.delete(&key);
            r.delete_key(&key);
        }
    }
    RawDeltas {
        pdt: p,
        vdt: v,
        rows: r,
        pdt_update_ns,
    }
}

/// Propagate cost: the script's second half, built as a PDT of its own on
/// top of the first half's image, folded into the first half's PDT.
fn propagate_ns_per_entry(chunks: &[Chunk]) -> f64 {
    let (lower_chunks, upper_chunks) = chunks.split_at(chunks.len() / 2);
    let mut pos = Positions::default();
    let mut lower = pdt::Pdt::new(schema(), vec![0]);
    for c in lower_chunks {
        apply_pdt(&mut lower, &mut pos, c);
    }
    let mut upper = pdt::Pdt::new(schema(), vec![0]);
    for c in upper_chunks {
        apply_pdt(&mut upper, &mut pos, c);
    }
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut target = lower.clone();
            let t0 = Instant::now();
            pdt::propagate::propagate(&mut target, &upper);
            let ns = t0.elapsed().as_nanos() as f64;
            black_box(target.len());
            ns / upper.len().max(1) as f64
        })
        .collect();
    median(&reps)
}

/// Each ladder rung is timed this many times; the median is reported.
const REPS: usize = 5;

fn fresh_out() -> Vec<ColumnVec> {
    PROJ.iter()
        .map(|_| ColumnVec::with_capacity(ValueType::Int, 4200))
        .collect()
}

/// Median wall time of `run` (which returns rows produced), and the rows.
fn time_reps(mut run: impl FnMut() -> u64) -> (f64, u64) {
    let mut rows = 0;
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            rows = run();
            ms(t0.elapsed())
        })
        .collect();
    (median(&reps), rows)
}

fn ladder(lanes: &Lanes, seed: u64, pdt_scan_ms: f64, m: &mut Measured) {
    let stable = lanes.pdt.stable_single(TABLE).expect("one partition");
    let io = columnar::IoTracker::new();
    let nb = stable.num_blocks();
    // rung 1: decode alone, the projected columns of every block
    let (decode_ms, _) = time_reps(|| {
        let mut values = 0u64;
        for b in 0..nb {
            for &c in &PROJ {
                let col = stable.read_block(c, b, &io).expect("decode");
                values += col.len() as u64;
                black_box(&col);
            }
        }
        values
    });
    m.set(
        "columnar.decode_ns_per_value",
        decode_ms * 1e6 / (lanes.n * PROJ.len() as u64) as f64,
    );
    // rung 2: the raw mergers over the same blocks, decoded beforehand
    let blocks: Vec<(u64, Vec<ColumnVec>)> = (0..nb)
        .map(|b| {
            let cols = (0..5)
                .map(|c| stable.read_block(c, b, &io).expect("decode"))
                .collect();
            (stable.block_range(b).0, cols)
        })
        .collect();
    let uniform = raw_deltas(&lanes.uniform, seed);
    let skew = raw_deltas(&lanes.skew, seed);
    let run_pdt = |p: &pdt::Pdt| {
        let mut merger = pdt::PdtMerger::new(p, 0);
        let mut rows = 0u64;
        for (start, cols) in &blocks {
            let mut out = fresh_out();
            merger.merge_block(*start, cols[0].len(), &PROJ, &cols[1..], &mut out);
            rows += out[0].len() as u64;
            black_box(&out);
        }
        let mut out = fresh_out();
        merger.drain_inserts_at(lanes.n, &PROJ, &mut out);
        rows + out[0].len() as u64
    };
    let want = expected(lanes.n, seed, &lanes.uniform).rows;
    let (pdt_ms, rows) = time_reps(|| run_pdt(&uniform.pdt));
    m.check(rows == want, || {
        format!("raw PDT merge produced {rows} rows, want {want}")
    });
    m.set("pdt.merge_ns_per_row", pdt_ms * 1e6 / want as f64);
    let (skew_ms, _) = time_reps(|| run_pdt(&skew.pdt));
    m.set("pdt.merge_skew_ns_per_row", skew_ms * 1e6 / want as f64);
    let (vdt_ms, rows) = time_reps(|| {
        let mut merger = vdt::VdtMerger::new(&uniform.vdt);
        let mut rows = 0u64;
        for (_, cols) in &blocks {
            let mut out = fresh_out();
            merger.merge_block(cols[0].len(), &PROJ, &cols[..1], &cols[1..], &mut out);
            rows += out[0].len() as u64;
            black_box(&out);
        }
        let mut out = fresh_out();
        merger.drain_inserts(None, &PROJ, &mut out);
        rows + out[0].len() as u64
    });
    m.check(rows == want, || {
        format!("raw VDT merge produced {rows} rows, want {want}")
    });
    m.set("vdt.merge_ns_per_row", vdt_ms * 1e6 / want as f64);
    let (rows_ms, rows) = time_reps(|| {
        let mut merger = rowstore::RowMerger::new(&uniform.rows);
        let mut rows = 0u64;
        for (_, cols) in &blocks {
            let mut out = fresh_out();
            merger.merge_block(cols[0].len(), &PROJ, &cols[..1], &cols[1..], &mut out);
            rows += out[0].len() as u64;
            black_box(&out);
        }
        let mut out = fresh_out();
        merger.drain_inserts(None, &PROJ, &mut out);
        rows + out[0].len() as u64
    });
    m.check(rows == want, || {
        format!("raw row merge produced {rows} rows, want {want}")
    });
    m.set("rowstore.merge_ns_per_row", rows_ms * 1e6 / want as f64);
    m.set("pdt.tree_update_ns_per_op", uniform.pdt_update_ns);
    m.set(
        "pdt.propagate_ns_per_entry",
        propagate_ns_per_entry(&lanes.uniform),
    );
    // the layers must add up: what the engine scan spends beyond decode
    // plus the raw merge is exec::scan's own (batching, views, dispatch)
    m.set(
        "exec.scan_unattributed_share",
        1.0 - (decode_ms + pdt_ms) / pdt_scan_ms,
    );
    m.notes.push(format!(
        "ladder (pdt lane, ms): decode {decode_ms:.3} + raw merge {pdt_ms:.3} vs engine scan {pdt_scan_ms:.3}"
    ));
    // what one PDT-lane scan decodes, from the engine's own profile
    let profile = lanes
        .pdt
        .read_view()
        .explain_analyze(TABLE, ScanSpec::cols(PROJ.to_vec()))
        .expect("explain_analyze");
    m.set(
        "columnar.decode_bytes_per_scan",
        profile.io.bytes_read as f64,
    );
    m.set(
        "columnar.blocks_decoded_per_scan",
        profile.io.blocks_read as f64,
    );
    m.set(
        "columnar.blocks_skipped_per_scan",
        (nb * PROJ.len()) as f64 - profile.io.blocks_read as f64,
    );
    // short ranged scans, the shape DML ranks its batches with
    let mut rng = Rng::new(seed ^ 0x5CA9);
    let span = lanes.n / 100;
    let view = lanes.pdt.read_view();
    let range_us: Vec<f64> = (0..200)
        .map(|_| {
            let lo = rng.below(lanes.n - span) as i64 * 2;
            let t0 = Instant::now();
            let spec = ScanSpec::cols(PROJ.to_vec())
                .key_range(vec![Value::Int(lo)], vec![Value::Int(lo + span as i64 * 2)]);
            let mut scan = view.scan_with(TABLE, spec).expect("range scan");
            while let Some(b) = scan.next_batch() {
                black_box(&b);
            }
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("exec.range_scan_us_p50", median(&range_us));
}

pub fn run(cfg: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let lanes = repeat_setup(&mut m, || setup(cfg));
    let want_rows = verify(&lanes, cfg.seed, &mut m);
    // a traced run spends half its time untraced: that half gives the lane
    // medians and the base tracing overhead is measured against
    let base_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let clock = PhaseClock::start();
    let base = measure(&lanes, &want_rows, base_seconds, &Tracer::off());
    clock.finish(&mut m);
    m.spin_ms.extend(&base.spin_ms);
    m.op_ms = base.ms[1].clone();
    m.throughput_count = base.scans;
    m.units = base.ms[0].len() as u64;
    m.attempted = base.scans;
    m.failed = base.wrong_count;
    m.notes.push(format!(
        "{} rows per table, {} rounds of {} lanes",
        lanes.n,
        m.units,
        LANES.len()
    ));
    if cfg.trace {
        for (l, lane) in LANES.iter().enumerate() {
            m.set(format!("exec.scan_{lane}_ms_p50"), median(&base.ms[l]));
        }
        let (traced, rec) =
            crate::trace::traced(|tr| measure(&lanes, &want_rows, cfg.seconds / 2.0, tr));
        m.attempted += traced.scans;
        m.failed += traced.wrong_count;
        m.traced_phase(&traced.ms[1], rec);
        ladder(&lanes, cfg.seed, median(&base.ms[1]), &mut m);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scale;

    /// The closed-form model against the executable specification, one
    /// update at a time.
    #[test]
    fn model_agrees_with_naive_image() {
        let (n, seed) = (600u64, 11);
        let mut rng = Rng::new(seed);
        let chunks = script(&mut rng, 0, n, 120);
        let base: Vec<Vec<Value>> = (0..n).map(|i| tuple(&base_row(i, seed))).collect();
        let mut naive = pdt::naive::NaiveImage::new(&base, vec![0]);
        let mut pos = Positions::default();
        for c in &chunks {
            for (g, row) in &c.ins {
                naive.insert(pos.rid_of_gap(*g) as usize, tuple(row));
                Positions::add(&mut pos.ins, *g);
            }
            for (s, v) in &c.mods {
                naive.modify(pos.rid_of_stable(*s) as usize, V0, Value::Int(*v));
            }
            for s in &c.dels {
                naive.delete(pos.rid_of_stable(*s) as usize);
                Positions::add(&mut pos.del, *s);
            }
        }
        let mut fp = Fingerprint::new(PROJ.len());
        let mut last_key = i64::MIN;
        for row in naive.rows() {
            assert!(
                row[0].as_int() > last_key,
                "model image must stay key-ordered"
            );
            last_key = row[0].as_int();
            fp.rows += 1;
            for (k, &c) in PROJ.iter().enumerate() {
                fp.push_int(k, row[c].as_int());
            }
        }
        assert_eq!(fp, expected(n, seed, &chunks));
    }

    #[test]
    fn skewed_script_stays_in_its_range() {
        let mut rng = Rng::new(5);
        let chunks = script(&mut rng, 900, 1000, 60);
        assert_eq!(chunks.len(), CHUNKS);
        for c in &chunks {
            assert!(c.ins.iter().all(|(g, _)| (900..1000).contains(g)));
            assert!(c.mods.iter().all(|(s, _)| (900..1000).contains(s)));
            assert!(c.dels.iter().all(|s| (900..1000).contains(s)));
        }
    }

    fn tiny(trace: bool) -> Measured {
        run(&RunConfig {
            seed: 3,
            seconds: 0.2,
            trace,
            scale: Scale::Tiny,
        })
    }

    #[test]
    fn tiny_run_verifies() {
        let m = tiny(false);
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        assert_eq!(m.failed, 0);
        assert!(m.attempted >= 15 && m.op_ms.len() >= 3);
    }

    #[test]
    fn tiny_traced_run_fills_the_ladder() {
        let m = tiny(true);
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        for name in [
            "pdt.merge_ns_per_row",
            "columnar.decode_ns_per_value",
            "exec.scan_vdt_ms_p50",
        ] {
            let v = m.layer.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            assert!(v.is_some_and(|v| v > 0.0), "{name}: {v:?}");
        }
        let rec = m.recording.unwrap();
        assert!(rec.totals()["exec.scan_drain"].count >= 15);
    }

    /// A lane whose image is off by one value must fail verification.
    #[test]
    fn corrupted_lane_is_caught() {
        let cfg = RunConfig {
            seed: 3,
            seconds: 0.0,
            trace: false,
            scale: Scale::Tiny,
        };
        let lanes = setup(&cfg);
        let mut txn = lanes.vdt.begin();
        txn.update_col(TABLE, &[7], 2, ColumnVec::Int(vec![-1]))
            .unwrap();
        txn.commit().unwrap();
        let mut m = Measured::default();
        verify(&lanes, cfg.seed, &mut m);
        assert_eq!(
            m.problems,
            vec!["lane vdt: image differs from the model".to_string()]
        );
    }
}
