//! `htap_mixed`: reads beside writes on the same layers. A
//! `server::Server` over TPC-H (PDT policy, `lineitem`/`orders` in four
//! partitions, WAL on) with the real background `MaintenanceScheduler` at
//! its default cadence and default admission control. Two closed-loop
//! sessions run for the whole measured phase: one loops the `tpch_hot`
//! query set, the other alternates one RF1 chunk and one RF2 chunk, one
//! commit each, thinking 20 ms between commits. With one writer on two
//! cores group commit has nothing to group.
//!
//! The refreshed tables' checkpoint budget is 512 KiB per partition, so
//! the scheduler checkpoints about once a second — at the engine's default
//! of 64 MiB it never would, and the workload could not show what
//! background merges cost foreground scans. Background *flushes* are
//! switched off (an unreachable flush budget): a Write-to-Read flush racing
//! a commit is the ROADMAP's open PDT bug, and with flushes on, one run in
//! about fifty ended with `lineitem` holding the right rows in the wrong
//! order (this workload's verifier is what noticed). The write layer is
//! folded by the checkpoints instead; inline flushes are `ingest_maint`'s.
//!
//! After `drain_maintenance`, `orders` and `lineitem` must equal, value for
//! value, a reference bulk-loaded from the generated rows with the
//! committed refresh chunks applied to them by hand.

use crate::common::{ms, spin_ms, Measured, PhaseClock, RunConfig, SETUPS};
use crate::env::TempDir;
use crate::model::{Fingerprint, Rng};
use crate::stats::{median, sorted, tail};
use crate::tpch_hot::{generate, scale_factor, shuffled_queries, PARTITIONS};
use crate::trace::{Span, Tracer};
use columnar::Tuple;
use engine::{Database, PartitionSpec, ScanSpec, TableOptions};
use server::{Server, ServerConfig, ServerError, Session};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tpch::queries::run_query;
use tpch::{stage_rf1_chunk, stage_rf2_chunk, RefreshStreams, TpchData};

/// Orders per refresh commit (RF1) and order keys per delete commit (RF2).
const CHUNK: usize = 8;
/// The refresh client's think time between commits. Without one the two
/// sessions and the scheduler's workers want more than the two cores there
/// are, the query round becomes a measure of who was scheduled when, and
/// its median moves ±6 % from run to run; with it the machine has headroom
/// and the round moves ±1 %. What the writer costs still shows: a longer
/// guard hold in the round itself, more background work in the CPU per
/// round.
const THINK: std::time::Duration = std::time::Duration::from_millis(20);
const CHECKPOINT_BYTES: usize = 512 << 10;
/// No background flush ever reaches this (see the module docs).
const FLUSH_BYTES: usize = usize::MAX;
const REFRESHED: [&str; 2] = ["lineitem", "orders"];

fn load(db: &Database, data: &TpchData) {
    let opts = TableOptions::default();
    for (name, rows) in data.tables() {
        let table_opts = if REFRESHED.contains(&name) {
            opts.clone()
                .with_partitions(PartitionSpec::Count(PARTITIONS))
                .with_flush_threshold(FLUSH_BYTES)
                .with_checkpoint_threshold(CHECKPOINT_BYTES)
        } else {
            opts.clone()
        };
        db.create_table(tpch::table_meta(name), table_opts, rows.clone())
            .expect("bulk load");
    }
}

fn start(cfg: &RunConfig, wal: &Path) -> Server {
    let _ = std::fs::remove_file(wal);
    let db = Database::with_wal(wal).expect("open WAL");
    load(&db, &generate(cfg));
    Server::start(
        Arc::new(db),
        ServerConfig {
            max_sessions: 2,
            ..ServerConfig::default()
        },
    )
}

/// Enough refresh chunks that the stream cannot run dry: half the orders
/// inserted and half deleted would be hundreds of commits a second for the
/// whole phase. The stream, like the population, does not depend on the
/// seed — where it started decided which orders went and moved the query
/// round by ±6 %; the seed orders the queries within each round.
fn refresh_streams(cfg: &RunConfig) -> RefreshStreams {
    RefreshStreams::build(&generate(cfg), 500.0)
}

#[derive(Default)]
struct QuerySide {
    round_ms: Vec<f64>,
    spin_ms: Vec<f64>,
    queries: u64,
    empty: u64,
    view_open_us: Vec<f64>,
}

#[derive(Default)]
struct RefreshSide {
    commit_ms: Vec<f64>,
    /// Chunks of each stream committed so far (the cursor into them).
    rf1_chunks: usize,
    rf2_chunks: usize,
    rows_staged: u64,
    retries: u64,
    ran_dry: bool,
}

fn query_session(
    session: &Session,
    sf: f64,
    rng: &mut Rng,
    stop: &AtomicBool,
    tr: &Tracer,
) -> QuerySide {
    let mut s = QuerySide::default();
    while s.round_ms.len() < 3 || !stop.load(Ordering::Relaxed) {
        tr.next_op();
        s.spin_ms.push(spin_ms());
        if tr.is_on() {
            // what opening a view costs beside a committing writer: it
            // takes the commit guard
            let t = Instant::now();
            drop(tr.call("engine.read_view", || session.read_view()));
            s.view_open_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let mut round = 0.0;
        for q in shuffled_queries(rng) {
            let t = Instant::now();
            let rows = tr.call("server.query", || {
                session.query(&format!("q{q:02}"), |view| {
                    tr.call("tpch.run_query", || run_query(q, view, sf))
                })
            });
            round += ms(t.elapsed());
            s.queries += 1;
            s.empty += rows.is_empty() as u64;
        }
        s.round_ms.push(round);
    }
    s
}

/// Commit one staged chunk through the session, retrying on admission
/// rejects; returns the retries it took.
fn commit_chunk(
    session: &Session,
    tr: &Tracer,
    stage: impl Fn(&mut engine::DbTxn<'_>) -> Result<(), engine::DbError>,
) -> u64 {
    let mut retries = 0;
    loop {
        let mut txn = tr.call("server.begin", || session.begin());
        let admitted = tr.call("server.admit", || {
            txn.touch("orders").and_then(|()| txn.touch("lineitem"))
        });
        let committed = match admitted {
            Ok(()) => {
                tr.call("tpch.stage_refresh", || stage(txn.raw()))
                    .expect("stage refresh chunk");
                tr.call("server.commit", || txn.commit()).map(|_| ())
            }
            Err(e) => Err(e),
        };
        match committed {
            Ok(()) => return retries,
            Err(ServerError::Backpressure { .. }) => {
                retries += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => panic!("refresh commit failed: {e}"),
        }
    }
}

fn refresh_session(
    session: &Session,
    streams: &RefreshStreams,
    mut s: RefreshSide,
    stop: &AtomicBool,
    tr: &Tracer,
) -> RefreshSide {
    let mut commits = 0;
    while commits < 3 || !stop.load(Ordering::Relaxed) {
        tr.next_op();
        let t = Instant::now();
        if commits % 2 == 0 {
            let Some(chunk) = streams.inserts.chunks(CHUNK).nth(s.rf1_chunks) else {
                s.ran_dry = true;
                break;
            };
            s.retries += commit_chunk(session, tr, |txn| stage_rf1_chunk(txn, chunk));
            s.rf1_chunks += 1;
            s.rows_staged += chunk
                .iter()
                .map(|(_, lines)| 1 + lines.len() as u64)
                .sum::<u64>();
        } else {
            let Some(chunk) = streams.delete_keys.chunks(CHUNK).nth(s.rf2_chunks) else {
                s.ran_dry = true;
                break;
            };
            s.retries += commit_chunk(session, tr, |txn| stage_rf2_chunk(txn, chunk));
            s.rf2_chunks += 1;
            s.rows_staged += chunk.len() as u64;
        }
        s.commit_ms.push(ms(t.elapsed()));
        commits += 1;
        std::thread::sleep(THINK);
    }
    s
}

struct PhaseOut {
    query: QuerySide,
    refresh: RefreshSide,
    spans: Vec<Vec<Span>>,
    wall_s: f64,
}

/// Both sessions, closed-loop, for `seconds`.
fn phase(
    server: &Server,
    streams: &Arc<RefreshStreams>,
    sf: f64,
    seed: u64,
    cursor: RefreshSide,
    seconds: f64,
    traced: bool,
) -> PhaseOut {
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let q_stop = stop.clone();
    let q = server
        .spawn("query", move |session| {
            let tr = Tracer::new(traced, 1);
            let side = query_session(session, sf, &mut Rng::new(seed), &q_stop, &tr);
            (side, tr.into_spans())
        })
        .expect("spawn query session");
    let (r_stop, r_streams) = (stop.clone(), streams.clone());
    let r = server
        .spawn("refresh", move |session| {
            let tr = Tracer::new(traced, 2);
            let side = refresh_session(session, &r_streams, cursor, &r_stop, &tr);
            (side, tr.into_spans())
        })
        .expect("spawn refresh session");
    std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::Relaxed);
    let (query, q_spans) = q.join().expect("query session");
    let (refresh, r_spans) = r.join().expect("refresh session");
    PhaseOut {
        query,
        refresh,
        spans: vec![q_spans, r_spans],
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

fn fingerprint(db: &Database, table: &str) -> Fingerprint {
    let view = db.read_view();
    let ncols = view.table(table).expect("table").schema().len();
    let mut scan = view.scan_with(table, ScanSpec::all()).expect("scan");
    Fingerprint::of_scan(&mut scan, ncols)
}

/// The refreshed tables must hold exactly the generated rows, minus the
/// orders whose keys the committed RF2 chunks named, plus the orders the
/// committed RF1 chunks carried — whatever the sessions and the scheduler
/// did in between. The reference is bulk-loaded from that row set, so it
/// has seen no delta structure, no WAL and no maintenance at all.
fn verify(
    db: &Database,
    cfg: &RunConfig,
    streams: &RefreshStreams,
    done: &RefreshSide,
    m: &mut Measured,
) {
    let data = generate(cfg);
    let inserted = &streams.inserts[..(done.rf1_chunks * CHUNK).min(streams.inserts.len())];
    let deleted: HashSet<i64> = streams.delete_keys
        [..(done.rf2_chunks * CHUNK).min(streams.delete_keys.len())]
        .iter()
        .copied()
        .collect();
    // both tables lead with the order key
    let survivors = |rows: &[Tuple]| -> Vec<Tuple> {
        rows.iter()
            .filter(|r| !deleted.contains(&r[0].as_int()))
            .cloned()
            .collect()
    };
    let mut orders = survivors(&data.orders);
    let mut lineitem = survivors(&data.lineitem);
    for (order, lines) in inserted {
        orders.push(order.clone());
        lineitem.extend(lines.iter().cloned());
    }
    let reference = Database::new();
    for (table, rows) in [("orders", orders), ("lineitem", lineitem)] {
        reference
            .create_table(tpch::table_meta(table), TableOptions::default(), rows)
            .expect("bulk load reference");
        let (got, want) = (fingerprint(db, table), fingerprint(&reference, table));
        m.check(got == want, || {
            format!(
                "{table}: {} rows after the concurrent run, the committed refresh leaves {}{}",
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
}

pub fn run(cfg: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let sf = scale_factor(cfg.scale);
    let dir = TempDir::create("htap_mixed").expect("scratch directory");
    let wal = dir.path().join("htap.wal");
    let streams = Arc::new(refresh_streams(cfg));
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        // the scheduler and pool threads of the previous set-up stop first
        if let Some(old) = server.take() {
            old.shutdown();
        }
        m.spin_ms.push(spin_ms());
        let t0 = Instant::now();
        server = Some(start(cfg, &wal));
        m.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let server = server.expect("SETUPS is at least 1");

    let base_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let clock = PhaseClock::start();
    let base = phase(
        &server,
        &streams,
        sf,
        cfg.seed,
        RefreshSide::default(),
        base_seconds,
        false,
    );
    clock.finish(&mut m);
    m.wall_s = base.wall_s;
    m.spin_ms.extend(&base.query.spin_ms);
    m.op_ms = base.query.round_ms.clone();
    m.throughput_count = base.query.queries;
    m.units = base.query.round_ms.len() as u64;
    m.attempted = base.query.queries + base.refresh.commit_ms.len() as u64;
    m.failed = base.query.empty;
    m.notes.push(format!(
        "SF {sf}: {} query rounds beside {} refresh commits of {CHUNK} orders",
        m.units,
        base.refresh.commit_ms.len()
    ));
    // how far into the streams the sessions got, over both phases
    let mut done = RefreshSide {
        rf1_chunks: base.refresh.rf1_chunks,
        rf2_chunks: base.refresh.rf2_chunks,
        ran_dry: base.refresh.ran_dry,
        ..RefreshSide::default()
    };
    if cfg.trace {
        let engine_trace = crate::trace::EngineTrace::start();
        let cursor = RefreshSide {
            rf1_chunks: done.rf1_chunks,
            rf2_chunks: done.rf2_chunks,
            ..RefreshSide::default()
        };
        let traced = phase(
            &server,
            &streams,
            sf,
            cfg.seed + 1,
            cursor,
            cfg.seconds / 2.0,
            true,
        );
        let mut rec = engine_trace.stop();
        for thread in traced.spans {
            rec.add_thread(thread);
        }
        m.attempted += traced.query.queries + traced.refresh.commit_ms.len() as u64;
        m.failed += traced.query.empty;
        m.traced_phase(&traced.query.round_ms, rec);
        m.set(
            "engine.view_open_us_p50",
            median(&traced.query.view_open_us),
        );
        done.rf1_chunks = traced.refresh.rf1_chunks;
        done.rf2_chunks = traced.refresh.rf2_chunks;
        done.ran_dry |= traced.refresh.ran_dry;
    }
    m.check(!done.ran_dry, || {
        "the refresh stream ran dry before the phase ended".into()
    });

    // what the scheduler did beside the sessions, before the drain adds
    // its own flush and checkpoint of every partition
    let snapshot = server.metrics();
    let drained = server.drain_maintenance();
    m.check(drained.is_ok(), || {
        format!("drain_maintenance failed: {drained:?}")
    });
    let db = server.db().clone();
    if cfg.trace {
        // what the untraced phase looked like from the server's side
        let sum = |f: fn(&server::CounterSnapshot) -> u64| -> f64 {
            snapshot
                .sessions
                .iter()
                .map(|s| f(&s.counters))
                .sum::<u64>() as f64
        };
        m.set("server.admission.delays", sum(|c| c.delays));
        m.set("server.admission.rejects", sum(|c| c.rejects));
        m.set("server.conflicts", sum(|c| c.conflicts));
        let unified = |name: &str| snapshot.unified.value(name).unwrap_or(0) as f64;
        m.set("server.maint.flushes", unified("maintenance.flushes"));
        m.set(
            "server.maint.checkpoints",
            unified("maintenance.checkpoints"),
        );
        m.set("server.backpressure_retries", base.refresh.retries as f64);
        let rounds = sorted(base.query.round_ms);
        let commits = sorted(base.refresh.commit_ms);
        let or_zero = |v: Option<f64>| v.unwrap_or(0.0);
        m.set("server.query_round_ms_p50", median(&rounds));
        m.set("server.query_round_ms_p95", or_zero(tail(&rounds, 0.95)));
        m.set("server.query_round_ms_max", or_zero(rounds.last().copied()));
        m.set(
            "server.queries_per_s",
            base.query.queries as f64 / base.wall_s,
        );
        m.set("server.commit_ms_p50", median(&commits));
        m.set("server.commit_ms_p95", or_zero(tail(&commits, 0.95)));
        m.set("server.commit_ms_p99", or_zero(tail(&commits, 0.99)));
        m.set("server.commit_ms_max", or_zero(commits.last().copied()));
        // rows as the harness staged them: orders and lineitems inserted,
        // order keys deleted (the lineitems a delete takes along are not
        // counted)
        m.set(
            "server.commit_rows_per_s",
            base.refresh.rows_staged as f64 / base.wall_s,
        );
        m.notes.push(format!(
            "tails: {} rounds, {} commits behind the percentiles (a percentile prints 0 \
             with fewer than {} samples beyond it)",
            rounds.len(),
            commits.len(),
            crate::stats::MIN_BEYOND
        ));
    }
    server.shutdown();
    verify(&db, cfg, &streams, &done, &mut m);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scale;

    #[test]
    fn tiny_run_matches_the_sequential_reference() {
        for trace in [false, true] {
            let m = run(&RunConfig {
                seed: 6,
                seconds: 0.3,
                trace,
                scale: Scale::Tiny,
            });
            assert!(m.problems.is_empty(), "{:?}", m.problems);
            assert_eq!(m.failed, 0);
            assert!(m.op_ms.len() >= 3);
        }
    }
}
