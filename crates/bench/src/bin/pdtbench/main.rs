//! `pdtbench` — the repository's layered benchmark. See `README.md` beside
//! this file for the metrics and how they interact; `spec.rs` is the
//! contract `BENCHMARK.json` is generated from.
//!
//! ```text
//! pdtbench --workload W --seed N --seconds S --trace 0|1   one run
//! pdtbench [--seed N] [--seconds S] [--smoke]              every workload, untraced then traced
//! pdtbench --selfcheck [--seed N] [--seconds S] [--smoke]  two sets, compared against the bounds
//! pdtbench --spread N [--seed N] [--seconds S] [--smoke]    N seeds per workload, quartile spread
//! pdtbench --print-benchmark-json | --print-layer-table
//! ```
//!
//! One run prints its metrics by name with their units, then — as the last
//! line of standard output — one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. Untraced runs carry the end-to-end metrics, traced
//! runs the per-layer ones. The multi-run modes start each run as a child
//! process of this same binary, so every workload gets a fresh address
//! space and its own peak-memory reading.

mod common;
mod env;
mod htap_mixed;
mod ingest_maint;
mod json;
mod model;
mod scan_merge;
mod spec;
mod stats;
mod tpch_hot;
mod trace;

use common::{Measured, RunConfig, Scale};
use json::Json;
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    /// Runs per workload of the spread report; 0 when not asked for.
    spread: usize,
    print_json: bool,
    print_layers: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        selfcheck: false,
        spread: 0,
        print_json: false,
        print_layers: false,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !spec::WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                out.workload = Some(name);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--smoke" => out.smoke = true,
            "--selfcheck" => out.selfcheck = true,
            "--spread" => {
                out.spread = value("a run count")?
                    .parse()
                    .map_err(|e| format!("--spread: {e}"))?;
                if out.spread < 2 {
                    return Err("--spread needs at least 2 runs".into());
                }
            }
            "--print-benchmark-json" => out.print_json = true,
            "--print-layer-table" => out.print_layers = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

impl Args {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            2.0
        } else {
            spec::RUN_SECONDS as f64
        })
    }
}

/// How fast the host ran during this run, relative to the reference: the
/// speed probe's reference time over its median in this run (see
/// `common::spin_ms`). 1 when the probe never ran.
fn host_speed(m: &Measured) -> f64 {
    if m.spin_ms.is_empty() {
        1.0
    } else {
        common::SPIN_REFERENCE_MS / stats::median(&m.spin_ms)
    }
}

/// A measured value as it would have read at the host's reference speed.
/// Durations shrink when the host was slow, rates grow; counts, bytes and
/// ratios are what they are.
fn at_reference_speed(value: f64, unit: &str, speed: f64) -> f64 {
    match unit {
        "ns" | "us" | "ms" | "s" => value * speed,
        "1/s" => value / speed,
        _ => value,
    }
}

/// The five end-to-end metrics of a run, in `spec::E2E` order, timings at
/// the host's reference speed.
fn end_to_end(m: &Measured) -> Vec<(String, f64)> {
    let values = [
        stats::median(&m.setup_s),
        m.peak_rss_mib,
        stats::median(&m.op_ms),
        m.throughput_count as f64 / m.wall_s,
        m.cpu_s * 1e3 / m.units.max(1) as f64,
    ];
    let speed = host_speed(m);
    spec::E2E
        .iter()
        .zip(values)
        .map(|(e, v)| (e.name.to_string(), at_reference_speed(v, e.unit, speed)))
        .collect()
}

/// Every per-layer metric of the spec, 0 where this workload has no say,
/// timings at the host's reference speed.
fn per_layer(m: &Measured) -> Vec<(String, f64)> {
    let speed = host_speed(m);
    spec::per_layer()
        .iter()
        .map(|l| {
            let v = m
                .layer
                .iter()
                .find(|(n, _)| *n == l.name)
                .map_or(0.0, |(_, v)| *v);
            (l.name.clone(), at_reference_speed(v, l.unit, speed))
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    spec::E2E
        .iter()
        .find(|e| e.name == name)
        .map(|e| e.unit)
        .or_else(|| {
            spec::per_layer()
                .iter()
                .find(|l| l.name == name)
                .map(|l| l.unit)
        })
        .unwrap_or("")
}

/// The result object: the last line of a run's standard output.
fn result_line(m: &Measured, metrics: &[(String, f64)]) -> String {
    let attempted = m.attempted.max(1);
    // a failed verification fails the whole run, not one operation of it
    let failed = if m.problems.is_empty() {
        m.failed
    } else {
        attempted
    };
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, v)| {
                        let entry = Json::obj([
                            ("value", Json::Num(*v)),
                            ("unit", Json::str(unit_of(name))),
                        ]);
                        (name.clone(), entry)
                    })
                    .collect(),
            ),
        ),
    ])
    .to_line()
}

fn print_span_table(rec: &trace::Recording) {
    println!("# spans: name, calls, total ms, self ms (span minus its children)");
    for (name, t) in rec.totals() {
        println!(
            "span {name:<28} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

fn run_one(args: &Args, workload: &str) -> ExitCode {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        scale: args.scale(),
    };
    println!(
        "# pdtbench {workload} seconds={} trace={} scale={:?} {}",
        cfg.seconds,
        cfg.trace as u8,
        cfg.scale,
        env::stamp(cfg.seed)
    );
    // The workload runs beside a second, idle thread. The C allocator
    // takes cheaper single-threaded paths until a process first starts a
    // thread, so a run whose traced phase starts the first one (the trace
    // drain) would compare a single-threaded base against a multi-threaded
    // traced phase — 15 % on the query workloads that has nothing to do
    // with tracing. Every phase of every workload runs multi-threaded
    // instead, as a serving process does.
    let m = std::thread::scope(|s| {
        let (stop, wait) = std::sync::mpsc::channel::<()>();
        s.spawn(move || {
            // returns when `stop` is dropped
            let _ = wait.recv();
        });
        let m = match workload {
            "scan_merge" => scan_merge::run(&cfg),
            "tpch_hot" => tpch_hot::run(&cfg),
            "ingest_maint" => ingest_maint::run(&cfg),
            _ => htap_mixed::run(&cfg),
        };
        drop(stop);
        m
    });
    for note in &m.notes {
        println!("# {note}");
    }
    println!(
        "# host speed {:.4} of reference over {} probes; as measured: op median {:.4} ms, \
         {:.4} s wall, {:.2} s CPU — every timing below is at reference speed",
        host_speed(&m),
        m.spin_ms.len(),
        stats::median(&m.op_ms),
        m.wall_s,
        m.cpu_s
    );
    let metrics = if cfg.trace {
        per_layer(&m)
    } else {
        end_to_end(&m)
    };
    // a traced run still shows where its untraced half stood
    if cfg.trace {
        for (name, v) in end_to_end(&m) {
            println!("# untraced half: {name} {v} {}", unit_of(&name));
        }
    }
    for (name, v) in &metrics {
        println!("{name} {v} {}", unit_of(name));
    }
    if let Some(rec) = &m.recording {
        print_span_table(rec);
        let path = std::path::Path::new(env::OUT_ROOT).join(format!("trace_{workload}.jsonl"));
        let written = std::fs::create_dir_all(env::OUT_ROOT).and_then(|()| rec.write_jsonl(&path));
        match written {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
    }
    for problem in &m.problems {
        println!("# FAILED CHECK: {problem}");
    }
    println!("{}", result_line(&m, &metrics));
    ExitCode::SUCCESS
}

/// One child run's parsed result.
struct ChildResult {
    workload: &'static str,
    traced: bool,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Run one workload in a child process of this binary; its report goes to
/// our standard error, its last line comes back parsed.
fn run_child(
    args: &Args,
    workload: &'static str,
    seed: u64,
    trace: bool,
    seconds: f64,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    eprint!("{text}");
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let last = text.lines().last().ok_or("no output")?;
    let parsed = Json::parse(last)?;
    let metrics = parsed
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result has no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        workload,
        traced: trace,
        correct: parsed
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        metrics,
    })
}

/// A traced run in the multi-run modes is a quarter of the untraced one.
fn traced_seconds(seconds: f64) -> f64 {
    (seconds / 4.0).max(1.0)
}

/// One set: every workload untraced, then traced.
fn run_set(args: &Args) -> Result<Vec<ChildResult>, String> {
    let mut out = Vec::new();
    for w in &spec::WORKLOADS {
        for trace in [false, true] {
            let seconds = if trace {
                traced_seconds(args.seconds())
            } else {
                args.seconds()
            };
            out.push(run_child(args, w.name, args.seed, trace, seconds)?);
        }
    }
    Ok(out)
}

fn print_set(set: &[ChildResult]) -> bool {
    let layers = spec::per_layer();
    let mut all_correct = true;
    for r in set {
        let workload = r.workload;
        all_correct &= r.correct;
        println!(
            "\n== {workload} ({}) {}",
            if r.traced {
                "traced: per-layer"
            } else {
                "untraced: end-to-end"
            },
            if r.correct {
                "verified"
            } else {
                "VERIFICATION FAILED"
            }
        );
        for (name, v) in &r.metrics {
            // per-layer metrics are listed under the workload that measures them
            let home = layers.iter().find(|l| l.name == *name).map(|l| l.workload);
            if matches!(home, Some(h) if h != "all" && h != workload) {
                continue;
            }
            println!("{name:<44} {v:>16.4} {}", unit_of(name));
        }
    }
    all_correct
}

fn run_all(args: &Args) -> ExitCode {
    match run_set(args) {
        Ok(set) => {
            if print_set(&set) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("pdtbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Metrics that are counts of a deterministic script: two runs of one
/// build on one seed must agree on them exactly.
fn is_exact_count(name: &str, unit: &str, workload: &str) -> bool {
    workload == "ingest_maint"
        && matches!(unit, "count" | "B" | "ratio")
        && !name.starts_with("obs.")
}

/// Two sets of the same build, compared: an end-to-end metric may differ
/// by its bound, a count not at all.
fn selfcheck(args: &Args) -> ExitCode {
    let sets = match (run_set(args), run_set(args)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pdtbench: {e}");
            return ExitCode::from(1);
        }
    };
    let layers = spec::per_layer();
    let mut ok = true;
    println!(
        "{:<14} {:<44} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "first", "second", "spread"
    );
    for (a, b) in sets.0.iter().zip(&sets.1) {
        let (workload, traced) = (a.workload, a.traced);
        ok &= a.correct && b.correct;
        for ((name, x), (_, y)) in a.metrics.iter().zip(&b.metrics) {
            let spread = if x == y {
                0.0
            } else {
                (x - y).abs() / x.abs().max(y.abs())
            };
            let verdict = if !traced {
                let bound = spec::E2E
                    .iter()
                    .find(|e| e.name == name)
                    .map_or(0.0, |e| e.bound);
                if spread <= bound {
                    "within bound"
                } else {
                    ok = false;
                    "OUTSIDE BOUND"
                }
            } else {
                let l = layers.iter().find(|l| l.name == *name);
                if l.is_none_or(|l| l.workload != workload && l.workload != "all") {
                    continue;
                }
                if !is_exact_count(name, unit_of(name), workload) {
                    "reported"
                } else if x == y {
                    "identical"
                } else {
                    ok = false;
                    "COUNT DIFFERS"
                }
            };
            println!(
                "{workload:<14} {name:<44} {x:>14.4} {y:>14.4} {:>8.2}%  {verdict}",
                spread * 100.0
            );
        }
    }
    if ok {
        println!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck FAILED");
        ExitCode::from(1)
    }
}

/// What the acceptance rule computes: each workload on `runs` seeds, and
/// for every end-to-end metric the distance between the first and third
/// quartile as a share of the median, against the metric's bound.
fn spread_report(args: &Args) -> ExitCode {
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for w in &spec::WORKLOADS {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); spec::E2E.len()];
        for i in 0..args.spread {
            let seed = args.seed + i as u64;
            match run_child(args, w.name, seed, false, args.seconds()) {
                Ok(r) => {
                    ok &= r.correct;
                    for (s, (_, v)) in samples.iter_mut().zip(&r.metrics) {
                        s.push(*v);
                    }
                }
                Err(e) => {
                    eprintln!("pdtbench: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        for (e, s) in spec::E2E.iter().zip(&samples) {
            let (q1, q2, q3) = stats::quartiles(s).expect("at least two runs");
            let spread = stats::spread(s).unwrap_or(f64::INFINITY);
            // set-up time is held to its bound between two medians only
            let verdict = if e.name == "setup_s" {
                "not held to a spread"
            } else if spread * 3.0 < e.bound {
                "steady (under a third of the bound)"
            } else if spread <= e.bound {
                "within the bound"
            } else {
                ok = false;
                "TOO WIDE"
            };
            println!(
                "{:<14} {:<16} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.2}% {:>6.1}%  {verdict}",
                w.name,
                e.name,
                spread * 100.0,
                e.bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The per-layer glossary of the README: one row per metric with its unit,
/// the workload that measures it and the end-to-end metric it should move.
fn print_layer_table() {
    println!("| per-layer metric | unit | better | measured on | should move |");
    println!("|---|---|---|---|---|");
    for l in spec::per_layer() {
        println!(
            "| `{}` | {} | {} | {} | {} |",
            l.name, l.unit, l.better, l.workload, l.feeds
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pdtbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = spec::validate(&spec::WORKLOADS, &spec::E2E, spec::per_layer()) {
        eprintln!("pdtbench: the metric spec breaks the contract: {e}");
        return ExitCode::from(2);
    }
    if args.print_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.print_layers {
        print_layer_table();
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!("pdtbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    match &args.workload {
        Some(w) => run_one(&args, w),
        None if args.selfcheck => selfcheck(&args),
        None if args.spread > 0 => spread_report(&args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse("--workload tpch_hot --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("tpch_hot"));
        assert_eq!((a.seed, a.seconds(), a.trace), (42, 10.0, true));
        assert_eq!(parse("").unwrap().seconds(), spec::RUN_SECONDS as f64);
        assert_eq!(parse("--smoke").unwrap().seconds(), 2.0);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--what",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    fn measured() -> Measured {
        Measured {
            setup_s: vec![0.5, 0.7, 0.6],
            op_ms: vec![3.0, 1.0, 2.0],
            throughput_count: 500,
            units: 100,
            wall_s: 10.0,
            cpu_s: 5.0,
            peak_rss_mib: 123.5,
            attempted: 500,
            ..Measured::default()
        }
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let m = measured();
        let line = result_line(&m, &end_to_end(&m));
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let metrics = parsed.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, spec::E2E.iter().map(|e| e.name).collect::<Vec<_>>());
        let value = |n: &str| {
            parsed
                .get("metrics")
                .unwrap()
                .get(n)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(value("setup_s"), Some(0.6));
        assert_eq!(value("op_ms_p50"), Some(2.0));
        assert_eq!(value("ops_per_s"), Some(50.0));
        assert_eq!(value("cpu_ms_per_op"), Some(50.0));
        let traced = result_line(&m, &per_layer(&m));
        let parsed = Json::parse(&traced).unwrap();
        assert_eq!(
            parsed.get("metrics").unwrap().as_obj().unwrap().len(),
            spec::per_layer().len()
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut m = measured();
        m.check(false, || "lane vdt: image differs from the model".into());
        let parsed = Json::parse(&result_line(&m, &end_to_end(&m))).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(false)));
        // the failed share of the run is 1
        assert_eq!(parsed.get("failed"), parsed.get("attempted"));
    }

    #[test]
    fn only_deterministic_counts_must_repeat() {
        assert!(is_exact_count("engine.write_amp", "ratio", "ingest_maint"));
        assert!(is_exact_count("txn.wal.bytes_written", "B", "ingest_maint"));
        assert!(!is_exact_count(
            "engine.commit_ms_p50",
            "ms",
            "ingest_maint"
        ));
        assert!(!is_exact_count("server.conflicts", "count", "htap_mixed"));
        assert!(!is_exact_count(
            "obs.trace.dropped_records",
            "count",
            "ingest_maint"
        ));
    }
}
