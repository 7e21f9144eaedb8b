//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics with the end-to-end
//! metric each should move. `BENCHMARK.json` at the repository root is
//! this file's `benchmark_json()`; a test keeps the two equal.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Where this package lives, relative to the repository root.
pub const BENCH_DIR: &str = "crates/bench/src/bin/pdtbench";

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scan_merge",
        why: "read path alone: full scans of clean/PDT/PDT-skew/VDT/row-store lanes under one \
              update script; decode, the three mergers and exec::scan do the work, txn/server idle",
    },
    Workload {
        name: "tpch_hot",
        why:
            "operators dominate: TPC-H queries 1,3,6,10,12,14,15,16,19 over refreshed PDT tables; \
              scan is a minor share, so a scan-only gain should barely move it",
    },
    Workload {
        name: "ingest_maint",
        why: "write path alone: one client, WAL + images, a fixed skewed DML script with inline \
              flush/compaction/checkpoint, then crash and recover; counts repeat exactly",
    },
    Workload {
        name: "htap_mixed",
        why: "reads beside writes: a query session and a refresh session on one server with the \
              real background scheduler; lock holds and background merges show here as losses",
    },
];

pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these, and none is ever 0.
///
/// The bounds come from `--spread 10` on the build container (numbers in
/// the README): about three times the widest quartile spread the metric
/// shows on any workload in an ordinary hour, and still above the widest
/// seen in a bad one. `htap_mixed`, with two busy threads on two shared
/// cores, sets all the timing bounds; `setup_s`, throughput and CPU get the
/// largest the contract allows.
pub const E2E: [E2eMetric; 5] = [
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    E2eMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    E2eMetric {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.15,
    },
    E2eMetric {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    E2eMetric {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
];

/// The TPC-H queries `tpch_hot` and `htap_mixed` loop over. Q16 touches no
/// refreshed table: a control that must not move.
pub const QUERY_SET: [usize; 9] = [1, 3, 6, 10, 12, 14, 15, 16, 19];

pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// The workload whose traced run measures it (0 elsewhere).
    pub workload: &'static str,
    /// The end-to-end metric it should move on that workload.
    pub feeds: &'static str,
}

fn lm(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    workload: &'static str,
    feeds: &'static str,
) -> LayerMetric {
    LayerMetric {
        name: name.into(),
        unit,
        better,
        workload,
        feeds,
    }
}

const SCAN: &str = "scan_merge";
const TPCH: &str = "tpch_hot";
const INGEST: &str = "ingest_maint";
const HTAP: &str = "htap_mixed";
const LAT: &str = "op_ms_p50";
const THR: &str = "ops_per_s";
const BOTH: &str = "op_ms_p50, ops_per_s";

/// Every per-layer metric, in the order they are printed.
pub fn per_layer() -> &'static [LayerMetric] {
    static LAYERS: std::sync::OnceLock<Vec<LayerMetric>> = std::sync::OnceLock::new();
    LAYERS.get_or_init(build_per_layer)
}

fn build_per_layer() -> Vec<LayerMetric> {
    let mut m = vec![
        // columnar: block decode and image files
        lm("columnar.decode_ns_per_value", "ns", "lower", SCAN, BOTH),
        lm("columnar.decode_bytes_per_scan", "B", "lower", SCAN, BOTH),
        lm(
            "columnar.blocks_decoded_per_scan",
            "count",
            "lower",
            SCAN,
            BOTH,
        ),
        lm(
            "columnar.blocks_skipped_per_scan",
            "count",
            "higher",
            SCAN,
            BOTH,
        ),
        lm("columnar.image.bytes_written", "B", "lower", INGEST, THR),
        lm(
            "columnar.image.blocks_reused_share",
            "share",
            "higher",
            INGEST,
            THR,
        ),
        // the three mergers, raw, over pre-decoded blocks
        lm("pdt.merge_ns_per_row", "ns", "lower", SCAN, LAT),
        lm("pdt.merge_skew_ns_per_row", "ns", "lower", SCAN, THR),
        lm("vdt.merge_ns_per_row", "ns", "lower", SCAN, THR),
        lm("rowstore.merge_ns_per_row", "ns", "lower", SCAN, THR),
        lm(
            "pdt.tree_update_ns_per_op",
            "ns",
            "lower",
            SCAN,
            "op_ms_p50 on ingest_maint",
        ),
        lm(
            "pdt.propagate_ns_per_entry",
            "ns",
            "lower",
            SCAN,
            "ops_per_s on ingest_maint",
        ),
        lm("pdt.delta_bytes", "B", "lower", INGEST, BOTH),
        // exec: the scan lanes end to end and what the ladder leaves over
        lm("exec.scan_clean_ms_p50", "ms", "lower", SCAN, THR),
        lm("exec.scan_pdt_ms_p50", "ms", "lower", SCAN, LAT),
        lm("exec.scan_pdt_skew_ms_p50", "ms", "lower", SCAN, THR),
        lm("exec.scan_vdt_ms_p50", "ms", "lower", SCAN, THR),
        lm("exec.scan_rows_ms_p50", "ms", "lower", SCAN, THR),
        lm("exec.scan_unattributed_share", "share", "lower", SCAN, LAT),
        lm(
            "exec.range_scan_us_p50",
            "us",
            "lower",
            SCAN,
            "op_ms_p50 on ingest_maint",
        ),
    ];
    for q in QUERY_SET {
        m.push(lm(
            format!("exec.scan_share.q{q:02}"),
            "share",
            "lower",
            TPCH,
            LAT,
        ));
    }
    for q in QUERY_SET {
        m.push(lm(
            format!("exec.operator_ms.q{q:02}"),
            "ms",
            "lower",
            TPCH,
            LAT,
        ));
    }
    for q in QUERY_SET {
        m.push(lm(
            format!("tpch.q{q:02}_ms_p50"),
            "ms",
            "lower",
            TPCH,
            BOTH,
        ));
    }
    m.extend([
        // engine: the write path of ingest_maint
        lm("engine.commit_ms_p50", "ms", "lower", INGEST, LAT),
        lm("engine.commit_rows_per_s", "1/s", "higher", INGEST, THR),
        lm("engine.write_amp", "ratio", "lower", INGEST, THR),
        lm("engine.space_amp", "ratio", "lower", INGEST, THR),
        lm(
            "engine.recover_ms_p50",
            "ms",
            "lower",
            INGEST,
            "none (after the measured phase)",
        ),
        lm("engine.dml.append_us_p50", "us", "lower", INGEST, LAT),
        lm("engine.dml.update_col_us_p50", "us", "lower", INGEST, LAT),
        lm("engine.dml.delete_rids_us_p50", "us", "lower", INGEST, LAT),
        lm("engine.commit_call_us_p50", "us", "lower", INGEST, LAT),
        lm("engine.maint.flush_ms_p50", "ms", "lower", INGEST, THR),
        lm("engine.maint.compact_ms_p50", "ms", "lower", INGEST, THR),
        lm("engine.maint.checkpoint_ms_p50", "ms", "lower", INGEST, THR),
        lm("engine.maint.flushes", "count", "lower", INGEST, THR),
        lm("engine.maint.compactions", "count", "lower", INGEST, THR),
        lm("engine.maint.checkpoints", "count", "lower", INGEST, THR),
        lm("engine.maint.stall_share", "share", "lower", INGEST, THR),
        lm(
            "engine.maint.delta_bytes_retired",
            "B",
            "higher",
            INGEST,
            THR,
        ),
        lm(
            "engine.maint.image_bytes_per_retired_byte",
            "ratio",
            "lower",
            INGEST,
            THR,
        ),
        lm("engine.checkpoint.pin_us_p50", "us", "lower", INGEST, LAT),
        lm("engine.checkpoint.merge_ms_p50", "ms", "lower", INGEST, THR),
        lm(
            "engine.checkpoint.install_us_p50",
            "us",
            "lower",
            INGEST,
            LAT,
        ),
        lm("engine.compaction.merge_ms_p50", "ms", "lower", INGEST, THR),
        lm(
            "engine.recover.image_adopt_ms",
            "ms",
            "lower",
            INGEST,
            "engine.recover_ms_p50",
        ),
        lm(
            "engine.recover.wal_replay_ms",
            "ms",
            "lower",
            INGEST,
            "engine.recover_ms_p50",
        ),
        lm(
            "engine.recover.wal_entries_replayed",
            "count",
            "lower",
            INGEST,
            "engine.recover_ms_p50",
        ),
        lm("engine.view_open_us_p50", "us", "lower", HTAP, LAT),
        // txn: the log
        lm("txn.wal.bytes_written", "B", "lower", INGEST, THR),
        lm("txn.wal.bytes_per_commit", "B", "lower", INGEST, BOTH),
        lm("txn.wal.appends_per_commit", "ratio", "lower", INGEST, LAT),
        lm("txn.wal.flush_window_us_p50", "us", "lower", INGEST, LAT),
        lm("txn.wal.durable_wait_us_p50", "us", "lower", INGEST, LAT),
        // server: both sessions of htap_mixed, tails included
        lm("server.query_round_ms_p50", "ms", "lower", HTAP, LAT),
        lm("server.query_round_ms_p95", "ms", "lower", HTAP, THR),
        lm("server.query_round_ms_max", "ms", "lower", HTAP, THR),
        lm("server.queries_per_s", "1/s", "higher", HTAP, THR),
        lm("server.commit_ms_p50", "ms", "lower", HTAP, "cpu_ms_per_op"),
        lm("server.commit_ms_p95", "ms", "lower", HTAP, "cpu_ms_per_op"),
        lm("server.commit_ms_p99", "ms", "lower", HTAP, "cpu_ms_per_op"),
        lm("server.commit_ms_max", "ms", "lower", HTAP, "cpu_ms_per_op"),
        lm(
            "server.commit_rows_per_s",
            "1/s",
            "higher",
            HTAP,
            "cpu_ms_per_op",
        ),
        lm("server.admission.delays", "count", "lower", HTAP, THR),
        lm("server.admission.rejects", "count", "lower", HTAP, THR),
        lm("server.backpressure_retries", "count", "lower", HTAP, THR),
        lm("server.conflicts", "count", "lower", HTAP, THR),
        lm("server.maint.flushes", "count", "lower", HTAP, THR),
        lm("server.maint.checkpoints", "count", "lower", HTAP, THR),
        // obs: what tracing itself costs (every workload)
        lm(
            "obs.trace_overhead_share",
            "share",
            "lower",
            "all",
            "none (cost of the traced run)",
        ),
        lm(
            "obs.trace.dropped_records",
            "count",
            "lower",
            "all",
            "none (trust in the trace)",
        ),
    ]);
    m
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check names, units, counts and bounds against the contract's limits.
pub fn validate(
    workloads: &[Workload],
    e2e: &[E2eMetric],
    layers: &[LayerMetric],
) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads, want 2 to 8", workloads.len()));
    }
    if !(1..=16).contains(&e2e.len()) {
        return Err(format!("{} end-to-end metrics, want 1 to 16", e2e.len()));
    }
    if !(1..=128).contains(&layers.len()) {
        return Err(format!("{} per-layer metrics, want 1 to 128", layers.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = workloads
        .iter()
        .map(|w| w.name)
        .chain(e2e.iter().map(|m| m.name))
        .chain(layers.iter().map(|m| m.name.as_str()));
    for name in names {
        if !valid_name(name) {
            return Err(format!("bad name {name:?}"));
        }
        if !seen.insert(name) {
            return Err(format!("name {name:?} used twice"));
        }
    }
    for w in workloads {
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!("why of {} is not one line of at most 200", w.name));
        }
    }
    let units = e2e
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(layers.iter().map(|m| (m.name.as_str(), m.unit, m.better)));
    for (name, unit, better) in units {
        if !valid_unit(unit) {
            return Err(format!("bad unit {unit:?} on {name}"));
        }
        if !matches!(better, "lower" | "higher") {
            return Err(format!("bad direction {better:?} on {name}"));
        }
    }
    for m in e2e {
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            return Err(format!("bound of {} outside (0, 0.25]", m.name));
        }
    }
    match e2e.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better == "lower" => Ok(()),
        _ => Err("setup_s (unit s, lower is better) is required".into()),
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let manifest = format!("{BENCH_DIR}/Cargo.toml");
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                &manifest,
                "--",
            ]),
        ),
        ("paths", strs(&[BENCH_DIR])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                E2E.iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name.as_str())),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_spec_is_within_the_contract() {
        validate(&WORKLOADS, &E2E, per_layer()).unwrap();
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn names_and_units_are_checked() {
        for good in ["a", "q01_ms", "exec.scan-share.q01", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "_a", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "%", "MiB", "B"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "seventeen-chars-x", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn limits_are_enforced() {
        let wl = |n: usize| -> Vec<Workload> {
            (0..n)
                .map(|i| Workload {
                    name: ["w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8"][i],
                    why: "x",
                })
                .collect()
        };
        let e2e = |n: usize| -> Vec<E2eMetric> {
            let mut v = vec![E2eMetric {
                name: "setup_s",
                unit: "s",
                better: "lower",
                bound: 0.25,
            }];
            v.extend((1..n).map(|_| E2eMetric {
                name: "placeholder",
                unit: "s",
                better: "lower",
                bound: 0.1,
            }));
            v
        };
        let layers = |n: usize| -> Vec<LayerMetric> {
            (0..n)
                .map(|i| lm(format!("l{i}"), "ns", "lower", "w0", "x"))
                .collect()
        };
        assert!(validate(&wl(2), &e2e(1), &layers(128)).is_ok());
        assert!(validate(&wl(8), &e2e(1), &layers(1)).is_ok());
        assert!(validate(&wl(1), &e2e(1), &layers(1)).is_err());
        assert!(validate(&wl(9), &e2e(1), &layers(1)).is_err());
        assert!(validate(&wl(2), &e2e(1), &layers(129)).is_err());
        assert!(validate(&wl(2), &e2e(1), &layers(0)).is_err());
        // 17 end-to-end metrics, and a name used twice
        assert!(validate(&wl(2), &e2e(17), &layers(1)).is_err());
        assert!(validate(&wl(2), &e2e(3), &layers(1)).is_err());
        let mut no_setup = e2e(1);
        no_setup[0].name = "latency_ms";
        assert!(validate(&wl(2), &no_setup, &layers(1)).is_err());
        let mut wide = e2e(1);
        wide[0].bound = 0.3;
        assert!(validate(&wl(2), &wide, &layers(1)).is_err());
    }

    /// `BENCHMARK.json` is generated: `pdtbench --print-benchmark-json`.
    #[test]
    fn benchmark_json_at_the_root_is_current() {
        let mut dir = std::env::current_dir().unwrap();
        let path = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                break candidate;
            }
            if !dir.pop() {
                // built outside the repository: nothing to compare against
                return;
            }
        };
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            benchmark_json(),
            "run `pdtbench --print-benchmark-json > BENCHMARK.json`"
        );
    }
}
