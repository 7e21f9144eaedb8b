//! `ingest_maint`: the write path alone. One client, WAL + image store in
//! a scratch directory, PDT policy, compaction enabled. A fixed script of
//! transactions — each appends 256 rows, updates 256 and deletes 256 by
//! position, 90 % of them inside 10 % of the key space — with maintenance
//! driven inline and deterministically: after every `tick`-th commit
//! `maybe_flush` then `compact_partition`, after every `checkpoint`-th a
//! full `checkpoint`. No timers and one client, so byte and flush counts
//! repeat exactly.
//!
//! The script's length is fixed by `--seconds` (`TXNS_PER_SECOND` of them
//! per second asked for), not by a clock: the delta a commit meets depends
//! on how many came before it, so two runs are comparable only when they
//! do the same work.
//!
//! Then the process "crashes": the WAL length at the last acknowledged
//! operation of the script is recorded, eight more transactions are
//! acknowledged and, with everything else written after that point,
//! discarded — the database is dropped without shutdown, WAL and image
//! directory are copied, and the copy's WAL is cut back to the recorded
//! length. Recovery from the copy must show exactly the script's image.

use crate::common::{ms, repeat_setup, spin_ms, Measured, PhaseClock, RunConfig, Scale};
use crate::env::{file_len, file_sizes, TempDir};
use crate::model::{hash_str, mix, Fingerprint, Rng, SlotTree};
use crate::stats::median;
use crate::trace::{Recording, Tracer};
use columnar::{ColumnVec, Schema, TableMeta, Value, ValueType};
use engine::{CompactionConfig, Database, ScanSpec, TableOptions};
use exec::Batch;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

const TABLE: &str = "events";
const BATCH: usize = 256;
/// Script length per second of `--seconds`, sized on the 2-core build
/// container so the script takes about that long: each positional
/// statement ranks its 256 victims with a scan of nearly the whole table,
/// so a transaction is three such scans, about 0.1 s at 500k rows.
const TXNS_PER_SECOND: f64 = 10.0;
/// Transactions acknowledged after the crash point and lost with it.
const LOST_TAIL: usize = 8;
const RECOVERIES: usize = 5;
const TAGS: [&str; 8] = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
];
const P0: usize = 1;
const FLUSH_BYTES: usize = 128 << 10;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("k", ValueType::Int),
        ("p0", ValueType::Int),
        ("p1", ValueType::Int),
        ("tag", ValueType::Str),
    ])
}

struct Sizes {
    /// Stable rows; keys are the even slots of `2 * rows`.
    rows: usize,
    /// Commits between maintenance ticks, and between checkpoints.
    tick: usize,
    checkpoint: usize,
    txns: usize,
}

fn sizes(cfg: &RunConfig) -> Sizes {
    let (rows, tick, checkpoint) = match cfg.scale {
        Scale::Full => (500_000, 8, 32),
        Scale::Smoke => (100_000, 4, 16),
        Scale::Tiny => (20_000, 2, 4),
    };
    // whole checkpoint periods, then half of one and half a tick: the
    // script ends between two maintenance ticks, so recovery finds both
    // range-compacted images and a WAL tail no marker covers
    let want = (cfg.seconds * TXNS_PER_SECOND) as usize;
    let periods = (want / checkpoint).max(1);
    Sizes {
        rows,
        tick,
        checkpoint,
        txns: periods * checkpoint + checkpoint / 2 + tick / 2,
    }
}

fn p1_of(slot: usize, seed: u64) -> i64 {
    (mix(slot as u64 ^ seed) >> 1) as i64
}

fn tag_of(slot: usize) -> &'static str {
    TAGS[(mix(slot as u64) % TAGS.len() as u64) as usize]
}

fn base_rows(rows: usize, seed: u64) -> Vec<Vec<Value>> {
    (0..rows)
        .map(|i| {
            let slot = i * 2;
            vec![
                Value::Int(slot as i64),
                Value::Int(p0_base(slot, seed)),
                Value::Int(p1_of(slot, seed)),
                Value::Str(tag_of(slot).into()),
            ]
        })
        .collect()
}

fn p0_base(slot: usize, seed: u64) -> i64 {
    (mix(slot as u64 + seed.rotate_left(32)) >> 1) as i64
}

/// One transaction's inputs, generated before the clock starts.
#[derive(Clone)]
struct TxnInput {
    rows: Batch,
    upd_rids: Vec<u64>,
    upd_vals: Vec<i64>,
    del_rids: Vec<u64>,
    /// Bytes of user data the three statements carry.
    user_bytes: u64,
}

/// The table as the script leaves it: which key slots are live, and each
/// live key's `p0`. Positions handed to the engine are this model's.
struct Model {
    slots: SlotTree,
    p0: Vec<i64>,
    hot: (usize, usize),
    seed: u64,
    rng: Rng,
}

impl Model {
    fn new(rows: usize, seed: u64) -> Model {
        let n = rows * 2;
        Model {
            slots: SlotTree::new(n, |s| s % 2 == 0),
            p0: (0..n).map(|s| p0_base(s, seed)).collect(),
            // the hot tenth sits mid-table
            hot: (n / 20 * 9, n / 20 * 11),
            seed,
            rng: Rng::new(seed ^ 0x1A6E57),
        }
    }

    /// `BATCH` distinct slots of the wanted kind, nine in ten from the hot
    /// range.
    fn pick(&mut self, want_live: bool) -> Vec<usize> {
        let mut chosen = HashSet::with_capacity(BATCH);
        let mut out = Vec::with_capacity(BATCH);
        while out.len() < BATCH {
            let (lo, hi) = if self.rng.below(10) < 9 {
                self.hot
            } else {
                (0, self.slots.slots())
            };
            let slot = self
                .slots
                .pick_in(&mut self.rng, lo, hi, want_live)
                .or_else(|| {
                    self.slots
                        .pick_in(&mut self.rng, 0, self.slots.slots(), want_live)
                })
                .expect("the table never runs out of live or dead slots");
            if chosen.insert(slot) {
                out.push(slot);
            }
        }
        out
    }

    fn next_txn(&mut self, types: &[ValueType]) -> TxnInput {
        let mut user_bytes = 0u64;
        let mut rows = Batch::with_capacity(types, BATCH);
        for slot in self.pick(false) {
            let v = self.rng.payload();
            rows.push_owned_row(vec![
                Value::Int(slot as i64),
                Value::Int(v),
                Value::Int(p1_of(slot, self.seed)),
                Value::Str(tag_of(slot).into()),
            ]);
            user_bytes += 24 + tag_of(slot).len() as u64;
            self.slots.set(slot, true);
            self.p0[slot] = v;
        }
        // the transaction sees its own inserts
        let victims = self.pick(true);
        let upd_rids: Vec<u64> = victims.iter().map(|&s| self.slots.live_before(s)).collect();
        let upd_vals: Vec<i64> = victims.iter().map(|_| self.rng.payload()).collect();
        for (&s, &v) in victims.iter().zip(&upd_vals) {
            self.p0[s] = v;
        }
        // every delete is addressed against the image before the statement
        let victims = self.pick(true);
        let del_rids: Vec<u64> = victims.iter().map(|&s| self.slots.live_before(s)).collect();
        for s in victims {
            self.slots.set(s, false);
        }
        user_bytes += (BATCH * 16 + BATCH * 8) as u64;
        TxnInput {
            rows,
            upd_rids,
            upd_vals,
            del_rids,
            user_bytes,
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::new(4);
        for slot in (0..self.slots.slots()).filter(|&s| self.slots.is_live(s)) {
            fp.rows += 1;
            fp.push_int(0, slot as i64);
            fp.push_int(1, self.p0[slot]);
            fp.push_int(2, p1_of(slot, self.seed));
            fp.push_int(3, hash_str(tag_of(slot)) as i64);
        }
        fp
    }

    /// Bytes of the live rows as a user would count them.
    fn live_user_bytes(&self) -> u64 {
        (0..self.slots.slots())
            .filter(|&s| self.slots.is_live(s))
            .map(|s| 24 + tag_of(s).len() as u64)
            .sum()
    }
}

fn fingerprint_db(db: &Database) -> Fingerprint {
    let view = db.read_view();
    let mut scan = view.scan_with(TABLE, ScanSpec::all()).expect("scan");
    Fingerprint::of_scan(&mut scan, 4)
}

struct Store {
    db: Database,
    wal: PathBuf,
    images: PathBuf,
}

fn open(dir: &Path, name: &str, rows: usize, seed: u64) -> Store {
    let wal = dir.join(format!("{name}.wal"));
    let images = dir.join(format!("{name}.images"));
    let db = Database::with_storage(&wal, &images).expect("open storage");
    db.create_table(
        TableMeta::new(TABLE, schema(), vec![0]),
        // a write layer small enough that every tick has something to
        // flush; everything else is the engine's default
        TableOptions::default()
            .with_flush_threshold(FLUSH_BYTES)
            .with_compaction(CompactionConfig {
                enabled: true,
                ..CompactionConfig::default()
            }),
        base_rows(rows, seed),
    )
    .expect("bulk load");
    Store { db, wal, images }
}

/// What one pass over the script measured.
#[derive(Default)]
struct ScriptRun {
    commit_ms: Vec<f64>,
    spin_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    flushes: u64,
    compactions: u64,
    checkpoints: u64,
    blocks_merged: u64,
    blocks_reused: u64,
    delta_bytes_retired: u64,
    image_bytes_written: u64,
    wall_s: f64,
    failed: u64,
}

/// Bytes of image files (and manifest rewrites) that appeared since `seen`
/// was last brought up to date.
fn new_image_bytes(images: &Path, seen: &mut HashSet<String>) -> u64 {
    let files = file_sizes(images);
    let fresh: u64 = files
        .iter()
        .filter(|(name, _)| name.ends_with(".img") && seen.insert((*name).clone()))
        .map(|(_, len)| *len)
        .sum();
    if fresh > 0 {
        // every publish also rewrites the manifest
        fresh + files.get("MANIFEST").copied().unwrap_or(0)
    } else {
        0
    }
}

fn run_txn(db: &Database, t: TxnInput, tr: &Tracer) -> Result<u64, engine::DbError> {
    let mut txn = tr.call("engine.begin", || db.begin());
    tr.call("engine.append", || txn.append(TABLE, t.rows))?;
    tr.call("engine.update_col", || {
        txn.update_col(TABLE, &t.upd_rids, P0, ColumnVec::Int(t.upd_vals))
    })?;
    tr.call("engine.delete_rids", || txn.delete_rids(TABLE, &t.del_rids))?;
    tr.call("engine.commit", || txn.commit())
}

fn run_script(store: &Store, inputs: Vec<TxnInput>, sz: &Sizes, tr: &Tracer) -> ScriptRun {
    let mut r = ScriptRun::default();
    let db = &store.db;
    let flush_threshold = db.options(TABLE).expect("options").flush_threshold_bytes;
    let mut seen_images = HashSet::new();
    let start = Instant::now();
    for (j, input) in inputs.into_iter().enumerate() {
        tr.next_op();
        r.spin_ms.push(spin_ms());
        let t0 = Instant::now();
        let ok = run_txn(db, input, tr).is_ok();
        r.commit_ms.push(ms(t0.elapsed()));
        r.failed += !ok as u64;
        let done = j + 1;
        if done % sz.tick == 0 {
            tr.next_op();
            let t0 = Instant::now();
            let flushed = tr
                .call("engine.maybe_flush", || {
                    db.maybe_flush(TABLE, flush_threshold)
                })
                .expect("flush");
            r.flush_ms.push(ms(t0.elapsed()));
            r.flushes += flushed as u64;
            let t0 = Instant::now();
            let report = tr
                .call("engine.compact_partition", || {
                    db.compact_partition(TABLE, 0)
                })
                .expect("compact");
            r.compact_ms.push(ms(t0.elapsed()));
            if let Some(rep) = report {
                r.compactions += 1;
                r.blocks_merged += rep.blocks_merged;
                r.blocks_reused += rep.blocks_reused;
                r.delta_bytes_retired += rep.delta_bytes_folded;
            }
            r.image_bytes_written += new_image_bytes(&store.images, &mut seen_images);
        }
        if done % sz.checkpoint == 0 {
            tr.next_op();
            let before = db.delta_bytes(TABLE).expect("delta bytes");
            let t0 = Instant::now();
            let folded = tr
                .call("engine.checkpoint", || db.checkpoint(TABLE))
                .expect("checkpoint");
            r.checkpoint_ms.push(ms(t0.elapsed()));
            r.checkpoints += folded as u64;
            let after = db.delta_bytes(TABLE).expect("delta bytes");
            r.delta_bytes_retired += before.saturating_sub(after) as u64;
            r.image_bytes_written += new_image_bytes(&store.images, &mut seen_images);
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for name in file_sizes(from).keys() {
        std::fs::copy(from.join(name), to.join(name))?;
    }
    Ok(())
}

struct Recovered {
    ms: Vec<f64>,
    /// First recovery's split, from the engine's own recovery events.
    image_adopt_ms: f64,
    wal_entries: u64,
}

/// Recover [`RECOVERIES`] times from a copy of the crashed files cut back
/// to `crash_len`, holding each result to `want`.
fn crash_and_recover(
    store: Store,
    crash_len: u64,
    want: &Fingerprint,
    dir: &Path,
    sz: &Sizes,
    seed: u64,
    m: &mut Measured,
) -> Recovered {
    let Store { db, wal, images } = store;
    // the crash: no shutdown, no final checkpoint
    drop(db);
    let crashed_wal = dir.join("crashed.wal");
    let crashed_images = dir.join("crashed.images");
    std::fs::copy(&wal, &crashed_wal).expect("copy WAL");
    copy_dir(&images, &crashed_images).expect("copy images");
    let written = file_len(&crashed_wal);
    m.check(written > crash_len, || {
        "nothing was written after the crash point".into()
    });
    std::fs::OpenOptions::new()
        .write(true)
        .open(&crashed_wal)
        .and_then(|f| f.set_len(crash_len))
        .expect("truncate WAL copy");
    let mut out = Recovered {
        ms: Vec::new(),
        image_adopt_ms: 0.0,
        wal_entries: 0,
    };
    for i in 0..RECOVERIES {
        // a scratch WAL of its own: recovering must not touch the copy
        let scratch = dir.join(format!("recover-{i}.wal"));
        let fresh = Database::with_storage(&scratch, &crashed_images).expect("reopen");
        fresh
            .create_table(
                TableMeta::new(TABLE, schema(), vec![0]),
                TableOptions::default(),
                base_rows(sz.rows, seed),
            )
            .expect("recreate");
        obs::trace::drain();
        let started_ns = obs::trace::now_ns();
        let t0 = Instant::now();
        let recovered = fresh.recover_from(&crashed_wal);
        out.ms.push(ms(t0.elapsed()));
        if i == 0 {
            for e in obs::trace::drain().iter().filter_map(obs::trace::decode) {
                match e.kind {
                    // a range-compacted image carries the rest of its
                    // covered commits along; they are replayed too
                    obs::TraceKind::RecoveryImageAdopt => {
                        out.image_adopt_ms = (e.ts_ns.saturating_sub(started_ns)) as f64 / 1e6;
                        out.wal_entries += e.a;
                    }
                    obs::TraceKind::RecoveryWalReplay => out.wal_entries += e.a,
                    _ => {}
                }
            }
        }
        m.check(recovered.is_ok(), || {
            format!("recovery {i} failed: {recovered:?}")
        });
        let got = fingerprint_db(&fresh);
        m.check(got == *want, || {
            format!(
                "recovery {i}: {} rows recovered, the acknowledged image has {}{}",
                got.rows,
                want.rows,
                if got.rows == want.rows {
                    " (contents differ)"
                } else {
                    ""
                }
            )
        });
    }
    out
}

pub fn run(cfg: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let sz = sizes(cfg);
    let dir = TempDir::create("ingest_maint").expect("scratch directory");
    // a traced run does the script twice at half length, on fresh tables:
    // once untraced as the base, once with tracing on
    let script_txns = if cfg.trace {
        (sz.txns / 2).max(sz.checkpoint) / sz.tick * sz.tick + sz.tick / 2
    } else {
        sz.txns
    };
    let types = schema().types();
    let mut model = Model::new(sz.rows, cfg.seed);
    let inputs: Vec<TxnInput> = (0..script_txns).map(|_| model.next_txn(&types)).collect();
    let want = model.fingerprint();
    let live_user_bytes = model.live_user_bytes();
    let lost: Vec<TxnInput> = (0..LOST_TAIL).map(|_| model.next_txn(&types)).collect();
    let user_bytes: u64 = inputs.iter().map(|t| t.user_bytes).sum();
    let rows_changed = (script_txns * BATCH * 3) as u64;

    let mut opened = 0;
    let mut open_next = || {
        opened += 1;
        open(dir.path(), &format!("db{opened}"), sz.rows, cfg.seed)
    };
    let store = repeat_setup(&mut m, &mut open_next);

    // the traced pass replays the same script on a fresh table of its own
    let traced_inputs = cfg.trace.then(|| inputs.clone());
    let clock = PhaseClock::start();
    let base = run_script(&store, inputs, &sz, &Tracer::off());
    clock.finish(&mut m);
    m.spin_ms.extend(&base.spin_ms);
    m.op_ms = base.commit_ms.clone();
    m.throughput_count = rows_changed;
    m.units = script_txns as u64;
    m.attempted = script_txns as u64;
    m.failed = base.failed;
    m.notes.push(format!(
        "{} rows, {script_txns} transactions of 3x{BATCH} rows, tick {}, checkpoint every {}",
        sz.rows, sz.tick, sz.checkpoint
    ));

    // the store that goes on to crash: the traced one in a traced run
    let crashing = match traced_inputs {
        None => store,
        Some(inputs) => {
            drop(store);
            let fresh = open_next();
            let (traced, rec) = crate::trace::traced(|tr| run_script(&fresh, inputs, &sz, tr));
            m.attempted += script_txns as u64;
            m.failed += traced.failed;
            m.traced_phase(&traced.commit_ms, rec);
            fresh
        }
    };
    m.check(fingerprint_db(&crashing.db) == want, || {
        "the image after the script differs from the model".into()
    });
    let crash_len = file_len(&crashing.wal);
    let wal_stats = crashing.db.wal_stats().expect("WAL attached");
    let delta_bytes = crashing.db.delta_bytes(TABLE).expect("delta bytes");
    let disk_bytes = crash_len + file_sizes(&crashing.images).values().sum::<u64>();
    for t in lost {
        m.check(run_txn(&crashing.db, t, &Tracer::off()).is_ok(), || {
            "a transaction after the crash point failed".into()
        });
    }
    if cfg.trace {
        obs::trace::set_enabled(true);
    }
    let recovered = crash_and_recover(
        crashing,
        crash_len,
        &want,
        dir.path(),
        &sz,
        cfg.seed,
        &mut m,
    );
    obs::trace::set_enabled(false);

    if let Some(rec) = m.recording.take() {
        let r = &base;
        let recover_ms = median(&recovered.ms);
        let stall_ms: f64 = [&r.flush_ms, &r.compact_ms, &r.checkpoint_ms]
            .iter()
            .flat_map(|v| v.iter())
            .sum();
        let commits = script_txns as f64;
        m.set("engine.commit_ms_p50", median(&r.commit_ms));
        m.set("engine.commit_rows_per_s", rows_changed as f64 / r.wall_s);
        m.set(
            "engine.write_amp",
            (crash_len + r.image_bytes_written) as f64 / user_bytes as f64,
        );
        m.set(
            "engine.space_amp",
            disk_bytes as f64 / live_user_bytes as f64,
        );
        m.set("engine.recover_ms_p50", recover_ms);
        m.set("engine.recover.image_adopt_ms", recovered.image_adopt_ms);
        m.set(
            "engine.recover.wal_replay_ms",
            (recovered.ms[0] - recovered.image_adopt_ms).max(0.0),
        );
        m.set(
            "engine.recover.wal_entries_replayed",
            recovered.wal_entries as f64,
        );
        m.set("engine.maint.flush_ms_p50", median(&r.flush_ms));
        m.set("engine.maint.compact_ms_p50", median(&r.compact_ms));
        m.set("engine.maint.checkpoint_ms_p50", median(&r.checkpoint_ms));
        m.set("engine.maint.flushes", r.flushes as f64);
        m.set("engine.maint.compactions", r.compactions as f64);
        m.set("engine.maint.checkpoints", r.checkpoints as f64);
        m.set("engine.maint.stall_share", stall_ms / 1e3 / r.wall_s);
        m.set(
            "engine.maint.delta_bytes_retired",
            r.delta_bytes_retired as f64,
        );
        m.set(
            "engine.maint.image_bytes_per_retired_byte",
            r.image_bytes_written as f64 / r.delta_bytes_retired.max(1) as f64,
        );
        m.set("columnar.image.bytes_written", r.image_bytes_written as f64);
        m.set(
            "columnar.image.blocks_reused_share",
            r.blocks_reused as f64 / (r.blocks_merged + r.blocks_reused).max(1) as f64,
        );
        m.set("pdt.delta_bytes", delta_bytes as f64);
        m.set("txn.wal.bytes_written", crash_len as f64);
        m.set("txn.wal.bytes_per_commit", crash_len as f64 / commits);
        m.set(
            "txn.wal.appends_per_commit",
            wal_stats.appends as f64 / commits,
        );
        // the calls into the engine, from the harness's spans
        let us = |name: &str| median(&rec.durations_ms(name)) * 1e3;
        m.set("engine.dml.append_us_p50", us("engine.append"));
        m.set("engine.dml.update_col_us_p50", us("engine.update_col"));
        m.set("engine.dml.delete_rids_us_p50", us("engine.delete_rids"));
        m.set("engine.commit_call_us_p50", us("engine.commit"));
        // and what the engine's own spans say happened inside them
        let ev_us = |kind| median(&rec.event_durations_ms(kind)) * 1e3;
        m.set(
            "txn.wal.flush_window_us_p50",
            ev_us(obs::TraceKind::WalFlushWindow),
        );
        m.set(
            "txn.wal.durable_wait_us_p50",
            ev_us(obs::TraceKind::WalDurable),
        );
        m.set(
            "engine.checkpoint.merge_ms_p50",
            median(&rec.event_durations_ms(obs::TraceKind::CheckpointMerge)),
        );
        m.set(
            "engine.compaction.merge_ms_p50",
            median(&rec.event_durations_ms(obs::TraceKind::CompactionMerge)),
        );
        let (pin_us, install_us) = checkpoint_edges(&rec);
        m.set("engine.checkpoint.pin_us_p50", pin_us);
        m.set("engine.checkpoint.install_us_p50", install_us);
        m.notes.push(format!(
            "{} recoveries, {:.1} ms median, {} WAL entries replayed behind the last image",
            recovered.ms.len(),
            recover_ms,
            recovered.wal_entries
        ));
        m.recording = Some(rec);
    }
    m
}

/// A checkpoint call is pin, merge, install. The engine emits the merge as
/// a span; what precedes it inside the harness's `engine.checkpoint` span
/// is the pin, what follows it the install (marker append + swap).
fn checkpoint_edges(rec: &Recording) -> (f64, f64) {
    let (mut pins, mut installs) = (Vec::new(), Vec::new());
    for call in rec.spans().filter(|s| s.name == "engine.checkpoint") {
        let merge = rec.events.iter().find(|e| {
            e.kind == obs::TraceKind::CheckpointMerge
                && e.ts_ns >= call.start_ns
                && e.ts_ns + e.dur_ns <= call.end_ns
        });
        if let Some(merge) = merge {
            pins.push((merge.ts_ns - call.start_ns) as f64 / 1e3);
            installs.push((call.end_ns - merge.ts_ns - merge.dur_ns) as f64 / 1e3);
        }
    }
    (median(&pins), median(&installs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(trace: bool) -> RunConfig {
        RunConfig {
            seed: 9,
            seconds: 0.1,
            trace,
            scale: Scale::Tiny,
        }
    }

    #[test]
    fn script_positions_are_valid_and_the_model_tracks_them() {
        let mut model = Model::new(2_000, 4);
        let types = schema().types();
        let before = model.slots.live_total();
        for _ in 0..5 {
            let t = model.next_txn(&types);
            assert_eq!(t.rows.num_rows(), BATCH);
            for rids in [&t.upd_rids, &t.del_rids] {
                let distinct: HashSet<&u64> = rids.iter().collect();
                assert_eq!(distinct.len(), BATCH);
            }
        }
        // each transaction inserts as many rows as it deletes
        assert_eq!(model.slots.live_total(), before);
        assert_eq!(model.fingerprint().rows, before);
    }

    #[test]
    fn tiny_run_recovers_the_acknowledged_image() {
        let m = run(&tiny(false));
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        assert_eq!(m.failed, 0);
        assert_eq!(m.setup_s.len(), crate::common::SETUPS);
    }

    #[test]
    fn tiny_traced_run_counts_maintenance() {
        let m = run(&tiny(true));
        assert!(m.problems.is_empty(), "{:?}", m.problems);
        let get = |name: &str| {
            m.layer
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        // on a table this small a compaction step may leave the checkpoint
        // after it nothing to fold
        assert!(get("engine.maint.compactions") + get("engine.maint.checkpoints") >= 1.0);
        assert!(get("columnar.image.bytes_written") > 0.0);
        assert!(get("engine.write_amp") > 1.0);
        assert!(get("txn.wal.bytes_written") > 0.0);
        assert!(get("engine.recover.wal_entries_replayed") > 0.0);
    }
}
