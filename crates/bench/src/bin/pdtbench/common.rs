//! What every workload takes and gives back.

use crate::trace::Recording;
use std::time::Instant;

/// How big the inputs are. `Full` is what `BENCHMARK.json` runs; `Smoke`
/// exercises every workload and verifier in about two seconds each; `Tiny`
/// is for unit tests in unoptimized builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Scale {
    pub fn pick<T>(self, full: T, smoke: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
            Scale::Tiny => tiny,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Set-up is repeated this many times per run so `setup_s` is a median.
pub const SETUPS: usize = 3;

/// One run's raw results; `main` turns them into the named metrics.
#[derive(Default)]
pub struct Measured {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Latency samples of the workload's unit of client work.
    pub op_ms: Vec<f64>,
    /// What `ops_per_s` counts over `wall_s`.
    pub throughput_count: u64,
    /// What `cpu_ms_per_op` divides `cpu_s` by.
    pub units: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `VmHWM` when the measured phase ended (before verification builds
    /// its reference copies).
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Verification failures, empty when every check passed.
    pub problems: Vec<String>,
    /// Per-layer metrics this run measured (traced runs only).
    pub layer: Vec<(String, f64)>,
    pub recording: Option<Recording>,
    /// Lines for the human-readable report (sample counts, sizes).
    pub notes: Vec<String>,
    /// Milliseconds the speed probe took each time it ran ([`spin_ms`]).
    pub spin_ms: Vec<f64>,
}

impl Measured {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.layer.push((name.into(), value));
    }

    /// Close a traced phase whose op latencies were `traced_op_ms`: what
    /// tracing cost against the untraced ops already in `op_ms`, what it
    /// lost, and the recording itself.
    pub fn traced_phase(&mut self, traced_op_ms: &[f64], rec: Recording) {
        let overhead = crate::stats::median(traced_op_ms) / crate::stats::median(&self.op_ms) - 1.0;
        self.set("obs.trace_overhead_share", overhead);
        self.set("obs.trace.dropped_records", rec.dropped as f64);
        self.recording = Some(rec);
    }

    /// Record `problem` unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// Wall and CPU time of a phase.
pub struct PhaseClock {
    wall: Instant,
    cpu: f64,
}

impl PhaseClock {
    pub fn start() -> PhaseClock {
        PhaseClock {
            wall: Instant::now(),
            cpu: crate::env::cpu_seconds(),
        }
    }

    /// Close the phase into `m` (wall, CPU, peak memory).
    pub fn finish(self, m: &mut Measured) {
        m.wall_s = self.wall.elapsed().as_secs_f64();
        m.cpu_s = crate::env::cpu_seconds() - self.cpu;
        m.peak_rss_mib = crate::env::peak_rss_mib();
    }
}

/// What [`spin_ms`] reads on the 2-core build container when nothing else
/// runs on the host. Only ratios to it are used, so its exact value is a
/// convention, not a measurement anyone depends on.
pub const SPIN_REFERENCE_MS: f64 = 0.42;

/// The speed probe: a fixed chain of 100 000 dependent integer mixes,
/// about half a millisecond, that touches no memory and calls nothing. The
/// build container shares its host: for seconds at a time everything,
/// this loop included, runs 5–15 % slower (CPU time per op rises with the
/// wall time, so it is the clock, not the scheduler). Every workload runs
/// the probe before each unit of client work; `main` scales the run's
/// timings by `SPIN_REFERENCE_MS / median(probe)`, which takes the
/// host's mood out of them and leaves the program's.
pub fn spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..100_000u64 {
        acc = crate::model::mix(acc ^ i);
    }
    std::hint::black_box(acc);
    ms(t0.elapsed())
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `setup` [`SETUPS`] times, timing each and dropping each result
/// before building the next; the last one is kept.
pub fn repeat_setup<T>(m: &mut Measured, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        m.spin_ms.push(spin_ms());
        let t0 = Instant::now();
        last = Some(setup());
        m.setup_s.push(t0.elapsed().as_secs_f64());
    }
    last.expect("SETUPS is at least 1")
}
