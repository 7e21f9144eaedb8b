//! Per-query execution accounting.
//!
//! The paper's Figure 19 separates each query bar into **scan time** (disk
//! read + decompression + applying updates) and **processing time** (the
//! rest), alongside **I/O volume**. [`QueryStats`] captures all three:
//! scan operators charge their wall time to a shared [`ScanClock`]; I/O
//! volume is delta-measured on the storage layer's `IoTracker`; total time
//! is measured by the harness around plan execution.

use columnar::{IoStats, IoTracker};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared accumulator of time spent inside scan operators.
#[derive(Debug, Default, Clone)]
pub struct ScanClock {
    nanos: Arc<AtomicU64>,
}

impl ScanClock {
    /// Fresh clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge the duration since `start`.
    pub fn charge(&self, start: Instant) {
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Accumulated scan time in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// Thread-safe recorder of per-operation wall times — e.g. the latency of
/// repeated scans while background maintenance runs.
///
/// Memory is bounded: up to [`RESERVOIR_CAP`] samples are kept in a
/// reservoir (Vitter's Algorithm R with a deterministic internal generator,
/// so long-running servers don't grow without limit and fixed workloads
/// summarize identically across runs). Until the reservoir fills, every
/// sample is kept and percentiles are exact; past that they are estimates
/// over a uniform sample, while `count` and `max_ns` stay exact.
#[derive(Debug)]
pub struct LatencyStats {
    inner: Mutex<Reservoir>,
}

/// Number of samples [`LatencyStats`] retains for percentile estimation.
pub const RESERVOIR_CAP: usize = 4096;

#[derive(Debug)]
struct Reservoir {
    samples: Vec<u64>,
    /// Total samples ever recorded (not just retained).
    total: u64,
    /// Exact maximum over all recorded samples, evicted or not.
    max_ns: u64,
    /// xorshift64* state for replacement-slot selection.
    rng: u64,
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats {
            inner: Mutex::new(Reservoir {
                samples: Vec::new(),
                total: 0,
                max_ns: 0,
                rng: 0x9E37_79B9_7F4A_7C15,
            }),
        }
    }
}

impl Reservoir {
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Summary of a [`LatencyStats`] recording, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Operations recorded (exact, not just retained samples).
    pub count: usize,
    /// Median latency.
    pub p50_ns: u64,
    /// 95th-percentile latency.
    pub p95_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// Exact maximum over every recorded operation.
    pub max_ns: u64,
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |ns: u64| ns as f64 / 1e6;
        write!(
            f,
            "n={} p50={:.3}ms p95={:.3}ms p99={:.3}ms max={:.3}ms",
            self.count,
            ms(self.p50_ns),
            ms(self.p95_ns),
            ms(self.p99_ns),
            ms(self.max_ns)
        )
    }
}

impl LatencyStats {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one operation's duration.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos() as u64;
        let mut r = self.inner.lock().expect("latency samples");
        r.total += 1;
        r.max_ns = r.max_ns.max(ns);
        if r.samples.len() < RESERVOIR_CAP {
            r.samples.push(ns);
        } else {
            // Algorithm R: the new sample replaces a random slot with
            // probability RESERVOIR_CAP / total, keeping the reservoir a
            // uniform sample of everything recorded.
            let total = r.total;
            let j = (r.next_rand() % total) as usize;
            if j < RESERVOIR_CAP {
                r.samples[j] = ns;
            }
        }
    }

    /// Time `f`, recording its wall duration.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(t0.elapsed());
        out
    }

    /// Nearest-rank percentiles over the retained reservoir (exact until
    /// [`RESERVOIR_CAP`] samples, estimates past that; `count` and `max_ns`
    /// are always exact). Returns `None` when no samples were recorded.
    pub fn summary(&self) -> Option<LatencySummary> {
        let (mut s, total, max_ns) = {
            let r = self.inner.lock().expect("latency samples");
            (r.samples.clone(), r.total, r.max_ns)
        };
        if s.is_empty() {
            return None;
        }
        s.sort_unstable();
        let rank = |p: f64| -> u64 {
            let idx = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
            s[idx]
        };
        Some(LatencySummary {
            count: total as usize,
            p50_ns: rank(0.50),
            p95_ns: rank(0.95),
            p99_ns: rank(0.99),
            max_ns,
        })
    }
}

/// Full per-query result accounting.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Wall time of the whole query.
    pub total_secs: f64,
    /// Time spent inside scan operators (I/O simulation + decompression +
    /// update merging).
    pub scan_secs: f64,
    /// Compressed bytes of blocks touched.
    pub io: IoStats,
    /// Rows returned.
    pub rows: usize,
}

impl QueryStats {
    /// Processing (non-scan) component.
    pub fn processing_secs(&self) -> f64 {
        (self.total_secs - self.scan_secs).max(0.0)
    }
}

/// Measure a closure producing rows, with scan time taken from `clock` and
/// I/O delta taken from `io`.
pub fn measure<T>(
    io: &IoTracker,
    clock: &ScanClock,
    f: impl FnOnce() -> (T, usize),
) -> (T, QueryStats) {
    let io_before = io.stats();
    let scan_before = clock.nanos();
    let t0 = Instant::now();
    let (out, rows) = f();
    let total_secs = t0.elapsed().as_secs_f64();
    let stats = QueryStats {
        total_secs,
        scan_secs: (clock.nanos() - scan_before) as f64 / 1e9,
        io: io.stats().since(&io_before),
        rows,
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates() {
        let c = ScanClock::new();
        let t = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        c.charge(t);
        assert!(c.nanos() > 1_000_000);
    }

    #[test]
    fn measure_computes_deltas() {
        let io = IoTracker::new();
        let clock = ScanClock::new();
        io.record_block(100); // pre-existing traffic must not count
        let (_out, stats) = measure(&io, &clock, || {
            io.record_block(50);
            ((), 7)
        });
        assert_eq!(stats.io.bytes_read, 50);
        assert_eq!(stats.rows, 7);
        assert!(stats.total_secs >= 0.0);
        assert!(stats.processing_secs() >= 0.0);
    }

    #[test]
    fn latency_percentiles_nearest_rank() {
        let l = LatencyStats::new();
        assert!(l.summary().is_none());
        for ns in [1u64, 2, 3, 4, 100] {
            l.record(Duration::from_nanos(ns));
        }
        let s = l.summary().unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.p50_ns, 3);
        assert_eq!(s.p95_ns, 100);
        assert_eq!(s.p99_ns, 100);
        assert_eq!(s.max_ns, 100);
        assert!(s.to_string().contains("p99"));
        let out = l.measure(|| 7);
        assert_eq!(out, 7);
        assert_eq!(l.summary().unwrap().count, 6);
    }

    #[test]
    fn latency_reservoir_is_bounded_and_representative() {
        let l = LatencyStats::new();
        let n = 3 * RESERVOIR_CAP as u64;
        for i in 0..n {
            l.record(Duration::from_nanos(i + 1));
        }
        let s = l.summary().unwrap();
        assert_eq!(s.count, n as usize, "count stays exact past the cap");
        assert_eq!(s.max_ns, n, "max stays exact even when evicted");
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
        // p50 of a uniform ramp should land around the middle of the range
        let mid = n / 2;
        assert!(
            s.p50_ns > mid / 2 && s.p50_ns < mid + mid / 2,
            "p50={} not near {mid}",
            s.p50_ns
        );
        {
            let r = l.inner.lock().unwrap();
            assert_eq!(r.samples.len(), RESERVOIR_CAP, "memory is bounded");
        }
    }
}
