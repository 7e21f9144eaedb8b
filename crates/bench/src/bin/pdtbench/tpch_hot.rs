//! `tpch_hot`: operators dominate. TPC-H under the PDT policy, `lineitem`
//! and `orders` in four partitions, one RF1 + RF2 pair (the spec's 0.1 %)
//! applied in set-up, no maintenance. One client loops the fixed query set
//! on a fresh `read_view()` per query. Results must equal, row for row,
//! those of a reference database that received the same refresh and was
//! then checkpointed clean.
//!
//! The population is the one `tpch::generate` gives for the scale factor,
//! as dbgen's is fixed by the specification; `--seed` decides the order of
//! the queries within each round (TPC-H's throughput streams are
//! permutations too). A seeded population moved the round time by ±3 % on
//! its own, which is more than most changes a run is meant to resolve.

use crate::common::{ms, repeat_setup, spin_ms, Measured, PhaseClock, RunConfig, Scale};
use crate::model::Rng;
use crate::spec::QUERY_SET;
use crate::stats::median;
use crate::trace::Tracer;
use columnar::{Tuple, Value};
use engine::{Database, TableOptions};
use std::time::Instant;
use tpch::queries::run_query;
use tpch::{RefreshStreams, TpchData};

pub const PARTITIONS: usize = 4;

pub fn scale_factor(scale: Scale) -> f64 {
    scale.pick(0.01, 0.004, 0.002)
}

pub fn generate(cfg: &RunConfig) -> TpchData {
    tpch::generate(scale_factor(cfg.scale))
}

/// The query set in this round's order (Fisher-Yates on the seeded stream).
pub fn shuffled_queries(rng: &mut Rng) -> [usize; QUERY_SET.len()] {
    let mut order = QUERY_SET;
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Load `data` (PDT policy, refresh-heavy tables partitioned) and apply
/// one RF1 + RF2 pair.
fn load_refreshed(data: &TpchData) -> Database {
    let db = tpch::load_database_partitioned(data, TableOptions::default(), PARTITIONS);
    let streams = RefreshStreams::build(data, 1.0);
    tpch::apply_rf1(&db, &streams, 256).expect("RF1");
    tpch::apply_rf2(&db, &streams, 256).expect("RF2");
    db
}

/// Two result sets are equal when every cell is; sums of doubles may
/// differ in the last bits when block boundaries differ, nothing more.
pub fn rows_match(a: &[Tuple], b: &[Tuple]) -> bool {
    let cell = |x: &Value, y: &Value| match (x, y) {
        (Value::Double(p), Value::Double(q)) => (p - q).abs() <= 1e-9 * p.abs().max(q.abs()),
        _ => x == y,
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| cell(x, y)))
}

#[derive(Default)]
pub struct QuerySamples {
    pub round_ms: Vec<f64>,
    pub spin_ms: Vec<f64>,
    /// Per query of the set, in set order.
    pub query_ms: Vec<Vec<f64>>,
    pub queries: u64,
    pub wrong: u64,
}

/// Loop the query set for `seconds` (at least three rounds). A query whose
/// result does not match `want` counts as failed.
fn measure(
    db: &Database,
    sf: f64,
    want: &[Vec<Tuple>],
    seconds: f64,
    rng: &mut Rng,
    tr: &Tracer,
) -> QuerySamples {
    let mut s = QuerySamples {
        query_ms: vec![Vec::new(); QUERY_SET.len()],
        ..QuerySamples::default()
    };
    let t0 = Instant::now();
    while s.round_ms.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        tr.next_op();
        s.spin_ms.push(spin_ms());
        // a round is the sum of its queries: checking results is not timed
        let mut round = 0.0;
        for q in shuffled_queries(rng) {
            let i = QUERY_SET
                .iter()
                .position(|&x| x == q)
                .expect("a query of the set");
            let t = Instant::now();
            let view = tr.call("engine.read_view", || db.read_view());
            let rows = tr.call("tpch.run_query", || run_query(q, &view, sf));
            let query = ms(t.elapsed());
            s.query_ms[i].push(query);
            round += query;
            s.queries += 1;
            s.wrong += !rows_match(&rows, &want[i]) as u64;
        }
        s.round_ms.push(round);
    }
    s
}

/// Scan share and operator time per query, from `exec::measure`'s split of
/// a query into time inside scan operators and the rest.
fn scan_split(db: &Database, sf: f64, m: &mut Measured) {
    for &q in &QUERY_SET {
        let (mut shares, mut operator_ms) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let view = db.read_view();
            let (_, stats) = exec::measure(&view.io, &view.clock, || {
                let rows = run_query(q, &view, sf);
                let n = rows.len();
                (rows, n)
            });
            shares.push(stats.scan_secs / stats.total_secs);
            operator_ms.push(stats.processing_secs() * 1e3);
        }
        m.set(format!("exec.scan_share.q{q:02}"), median(&shares));
        m.set(format!("exec.operator_ms.q{q:02}"), median(&operator_ms));
    }
}

pub fn run(cfg: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let sf = scale_factor(cfg.scale);
    let data = generate(cfg);
    let db = repeat_setup(&mut m, || load_refreshed(&generate(cfg)));
    let want: Vec<Vec<Tuple>> = {
        let reference = load_refreshed(&data);
        for table in reference.table_names() {
            reference.checkpoint(&table).expect("checkpoint reference");
        }
        let view = reference.read_view();
        QUERY_SET.iter().map(|&q| run_query(q, &view, sf)).collect()
    };
    drop(data);
    m.check(want.iter().all(|rows| !rows.is_empty()), || {
        "a reference query returned no rows".into()
    });
    let base_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut rng = Rng::new(cfg.seed);
    let clock = PhaseClock::start();
    let base = measure(&db, sf, &want, base_seconds, &mut rng, &Tracer::off());
    clock.finish(&mut m);
    m.spin_ms.extend(&base.spin_ms);
    m.op_ms = base.round_ms.clone();
    m.throughput_count = base.queries;
    m.units = base.round_ms.len() as u64;
    m.attempted = base.queries;
    m.failed = base.wrong;
    m.notes.push(format!(
        "SF {sf}, {} lineitem rows, {} rounds of {} queries",
        db.row_count("lineitem").expect("lineitem"),
        m.units,
        QUERY_SET.len()
    ));
    if cfg.trace {
        for (i, q) in QUERY_SET.iter().enumerate() {
            m.set(format!("tpch.q{q:02}_ms_p50"), median(&base.query_ms[i]));
        }
        let (traced, rec) =
            crate::trace::traced(|tr| measure(&db, sf, &want, cfg.seconds / 2.0, &mut rng, tr));
        m.attempted += traced.queries;
        m.failed += traced.wrong;
        m.traced_phase(&traced.round_ms, rec);
        scan_split(&db, sf, &mut m);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_compare_with_tolerance_everything_else_exactly() {
        let row = |d: f64, s: &str| vec![Value::Double(d), Value::Str(s.into()), Value::Int(1)];
        assert!(rows_match(&[row(1.0, "a")], &[row(1.0 + 1e-13, "a")]));
        assert!(!rows_match(&[row(1.0, "a")], &[row(1.001, "a")]));
        assert!(!rows_match(&[row(1.0, "a")], &[row(1.0, "b")]));
        assert!(!rows_match(&[row(1.0, "a")], &[]));
    }

    #[test]
    fn every_round_runs_every_query_once() {
        let mut rng = Rng::new(4);
        let rounds: Vec<_> = (0..20).map(|_| shuffled_queries(&mut rng)).collect();
        for order in &rounds {
            let mut sorted = *order;
            sorted.sort_unstable();
            assert_eq!(sorted, QUERY_SET);
        }
        assert!(rounds.iter().any(|o| *o != QUERY_SET));
    }

    #[test]
    fn tiny_run_verifies() {
        for trace in [false, true] {
            let m = run(&RunConfig {
                seed: 2,
                seconds: 0.1,
                trace,
                scale: Scale::Tiny,
            });
            assert!(m.problems.is_empty(), "{:?}", m.problems);
            assert_eq!(m.failed, 0);
            assert!(m.op_ms.len() >= 3);
            assert_eq!(m.layer.is_empty(), !trace);
        }
    }
}
