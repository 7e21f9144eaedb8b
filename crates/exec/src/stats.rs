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
use std::sync::Arc;
use std::time::Instant;

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
}
