//! I/O accounting.
//!
//! The paper's Plots 2 and 5 report *I/O volume*: the bytes of (compressed)
//! column blocks a query touches. Our block store is RAM-resident, but every
//! block access is routed through an [`IoTracker`], so the byte counts are
//! exactly what a disk-resident deployment would transfer. Device time is
//! not modelled: the counters report volume, never seconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Receiver of per-block read attribution. The compaction heat tracker
/// implements this to learn *which* stable blocks a scan touches (and how
/// many stored bytes each read cost), without the block store knowing
/// anything about tables or partitions — a sink is scoped to one stable
/// image by whoever constructs the scan ([`IoTracker::scoped`]).
pub trait BlockHeatSink: Send + Sync {
    /// Block `block` of the scoped stable image was read, costing `bytes`
    /// stored bytes (summed over however many columns the caller charges).
    fn on_block_read(&self, block: usize, bytes: u64);
}

/// A snapshot of I/O counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Number of block reads.
    pub blocks_read: u64,
    /// Total compressed bytes of the blocks read.
    pub bytes_read: u64,
}

impl IoStats {
    /// Difference between two snapshots (for per-query accounting).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            blocks_read: self.blocks_read - earlier.blocks_read,
            bytes_read: self.bytes_read - earlier.bytes_read,
        }
    }
}

/// Shared, thread-safe I/O counters. Cloning shares the counters (and the
/// heat sink, if any — see [`IoTracker::scoped`]).
#[derive(Default, Clone)]
pub struct IoTracker {
    inner: Arc<Counters>,
    sink: Option<Arc<dyn BlockHeatSink>>,
}

impl std::fmt::Debug for IoTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoTracker")
            .field("stats", &self.stats())
            .field("has_sink", &self.sink.is_some())
            .finish()
    }
}

#[derive(Debug, Default)]
struct Counters {
    blocks: AtomicU64,
    bytes: AtomicU64,
}

impl IoTracker {
    /// New tracker with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracker sharing this one's counters but reporting block reads to
    /// `sink` as well. The engine scopes one sink per table partition when
    /// it builds scan segments, so a scan's block touches feed that
    /// partition's heat map while the byte totals stay global.
    pub fn scoped(&self, sink: Arc<dyn BlockHeatSink>) -> IoTracker {
        IoTracker {
            inner: self.inner.clone(),
            sink: Some(sink),
        }
    }

    /// Record one block read of `bytes` compressed bytes.
    pub fn record_block(&self, bytes: u64) {
        self.inner.blocks.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one read of block `block` (`bytes` compressed bytes),
    /// additionally reporting it to the scoped heat sink, if any.
    pub fn record_block_at(&self, block: usize, bytes: u64) {
        self.record_block(bytes);
        if let Some(sink) = &self.sink {
            sink.on_block_read(block, bytes);
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> IoStats {
        IoStats {
            blocks_read: self.inner.blocks.load(Ordering::Relaxed),
            bytes_read: self.inner.bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accumulates_and_resets() {
        let t = IoTracker::new();
        t.record_block(100);
        t.record_block(50);
        assert_eq!(
            t.stats(),
            IoStats {
                blocks_read: 2,
                bytes_read: 150
            }
        );
        // counters only grow; a caller resets by re-basing on a snapshot
        let snap = t.stats();
        t.record_block(10);
        assert_eq!(t.stats().since(&snap).bytes_read, 10);
    }

    #[test]
    fn clones_share_counters() {
        let t = IoTracker::new();
        let t2 = t.clone();
        t2.record_block(7);
        assert_eq!(t.stats().bytes_read, 7);
    }

    #[test]
    fn scoped_sink_sees_block_indices_and_shares_counters() {
        struct Rec(std::sync::Mutex<Vec<(usize, u64)>>);
        impl BlockHeatSink for Rec {
            fn on_block_read(&self, block: usize, bytes: u64) {
                self.0.lock().unwrap().push((block, bytes));
            }
        }
        let rec = Arc::new(Rec(std::sync::Mutex::new(Vec::new())));
        let t = IoTracker::new();
        let scoped = t.scoped(rec.clone());
        scoped.record_block_at(3, 40);
        t.record_block_at(1, 10); // unscoped: counted, not reported
        assert_eq!(t.stats().bytes_read, 50, "counters are shared");
        assert_eq!(*rec.0.lock().unwrap(), vec![(3, 40)]);
    }
}
