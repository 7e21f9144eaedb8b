//! Per-query profiling: shared atomic counter blocks that scans and
//! operators fill in, plus the plan-shaped [`OpProfile`] report.
//!
//! The executor attaches a [`ScanProfile`] to a profiled table scan
//! (see `ScanSpec::profiled()` in the engine) and wraps downstream
//! operators in `exec::Profiled`, which updates an [`OpStats`]. After
//! the query drains, the caller snapshots both into an [`OpProfile`]
//! tree whose `Display` renders an `explain_analyze`-style report.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Merge path a profiled scan took, one label per partition state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePath {
    /// No delta: blocks decoded straight from stable storage.
    Clean = 1,
    /// PDT delta merged via the typed positional kernels.
    PdtKernel = 2,
    /// VDT delta merged via the typed kernels.
    VdtKernel = 3,
    /// Row-store delta merged via the typed kernels.
    RowsKernel = 4,
}

impl MergePath {
    /// Human label, e.g. `"pdt-kernel"`.
    pub fn name(self) -> &'static str {
        match self {
            MergePath::Clean => "clean",
            MergePath::PdtKernel => "pdt-kernel",
            MergePath::VdtKernel => "vdt-kernel",
            MergePath::RowsKernel => "rows-kernel",
        }
    }

    fn from_u64(v: u64) -> Option<MergePath> {
        Some(match v {
            1 => MergePath::Clean,
            2 => MergePath::PdtKernel,
            3 => MergePath::VdtKernel,
            4 => MergePath::RowsKernel,
            _ => return None,
        })
    }
}

/// Live counters one profiled table scan accumulates (shared via `Arc`
/// between the executor and the caller that wants the report).
#[derive(Default)]
pub struct ScanProfile {
    /// Batches emitted.
    pub batches: AtomicU64,
    /// Rows emitted.
    pub rows: AtomicU64,
    /// Blocks decoded from stable storage.
    pub blocks_decoded: AtomicU64,
    /// Blocks skipped by zone-map range pruning (clean scans only).
    pub blocks_skipped: AtomicU64,
    /// Stored bytes read while decoding (approximate when the backing
    /// `IoTracker` is shared with concurrent scans).
    pub bytes_read: AtomicU64,
    /// Wall nanoseconds spent producing batches (merge + decode).
    pub wall_ns: AtomicU64,
    /// Partitions (scan segments) visited.
    pub segments: AtomicU64,
    paths: [AtomicU64; 5],
}

impl ScanProfile {
    /// Fresh, zeroed profile.
    pub fn new() -> ScanProfile {
        ScanProfile::default()
    }

    /// Count one partition taking `path` (a scan over several
    /// partitions can take several paths).
    pub fn record_path(&self, path: MergePath) {
        self.paths[path as usize].fetch_add(1, Relaxed);
    }

    /// Freeze the counters.
    pub fn snapshot(&self) -> ScanProfileSnapshot {
        let mut paths = Vec::new();
        for (i, c) in self.paths.iter().enumerate() {
            let n = c.load(Relaxed);
            if n > 0 {
                if let Some(p) = MergePath::from_u64(i as u64) {
                    paths.push((p, n));
                }
            }
        }
        ScanProfileSnapshot {
            batches: self.batches.load(Relaxed),
            rows: self.rows.load(Relaxed),
            blocks_decoded: self.blocks_decoded.load(Relaxed),
            blocks_skipped: self.blocks_skipped.load(Relaxed),
            bytes_read: self.bytes_read.load(Relaxed),
            wall_ns: self.wall_ns.load(Relaxed),
            segments: self.segments.load(Relaxed),
            paths,
        }
    }
}

/// Frozen [`ScanProfile`] counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScanProfileSnapshot {
    /// Batches emitted.
    pub batches: u64,
    /// Rows emitted.
    pub rows: u64,
    /// Blocks decoded from stable storage.
    pub blocks_decoded: u64,
    /// Blocks skipped by zone-map range pruning.
    pub blocks_skipped: u64,
    /// Stored bytes read while decoding.
    pub bytes_read: u64,
    /// Wall nanoseconds spent producing batches.
    pub wall_ns: u64,
    /// Partitions visited.
    pub segments: u64,
    /// Merge paths taken, with how many partitions took each.
    pub paths: Vec<(MergePath, u64)>,
}

impl ScanProfileSnapshot {
    /// Comma-joined path labels, e.g. `"clean,pdt-kernel"`.
    pub fn path_label(&self) -> String {
        if self.paths.is_empty() {
            return "-".to_string();
        }
        self.paths
            .iter()
            .map(|(p, _)| p.name())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Render as the leaf node of a plan report.
    pub fn into_op(self, table: &str) -> OpProfile {
        OpProfile {
            name: format!("Scan {table}"),
            detail: format!(
                "path={} blocks={} decoded/{} zone-skipped bytes={} segments={}",
                self.path_label(),
                self.blocks_decoded,
                self.blocks_skipped,
                self.bytes_read,
                self.segments
            ),
            batches: self.batches,
            rows: self.rows,
            wall_ns: self.wall_ns,
            children: Vec::new(),
        }
    }
}

/// Live per-operator counters behind `exec::Profiled`.
pub struct OpStats {
    /// Operator display name (e.g. `"Filter"`, `"Project"`).
    pub name: String,
    /// Batches this operator emitted.
    pub batches: AtomicU64,
    /// Rows this operator emitted.
    pub rows: AtomicU64,
    /// Wall nanoseconds inside this operator's `next_batch` (inclusive
    /// of children, like `EXPLAIN ANALYZE` actual-time).
    pub wall_ns: AtomicU64,
}

impl OpStats {
    /// Fresh counters for an operator called `name`.
    pub fn new(name: &str) -> OpStats {
        OpStats {
            name: name.to_string(),
            batches: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
        }
    }

    /// Freeze into a report node with the given children.
    pub fn into_op(&self, children: Vec<OpProfile>) -> OpProfile {
        OpProfile {
            name: self.name.clone(),
            detail: String::new(),
            batches: self.batches.load(Relaxed),
            rows: self.rows.load(Relaxed),
            wall_ns: self.wall_ns.load(Relaxed),
            children,
        }
    }
}

/// One node of a plan-shaped profile report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpProfile {
    /// Operator name (`"Scan orders"`, `"Filter"`, ...).
    pub name: String,
    /// Operator-specific detail line fragment.
    pub detail: String,
    /// Batches emitted.
    pub batches: u64,
    /// Rows emitted.
    pub rows: u64,
    /// Wall nanoseconds (inclusive of children).
    pub wall_ns: u64,
    /// Child operators (inputs).
    pub children: Vec<OpProfile>,
}

impl OpProfile {
    fn render(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let indent = "  ".repeat(depth);
        let arrow = if depth == 0 { "" } else { "-> " };
        write!(
            f,
            "{indent}{arrow}{} [rows={} batches={} time={:.3}ms",
            self.name,
            self.rows,
            self.batches,
            self.wall_ns as f64 / 1e6
        )?;
        if !self.detail.is_empty() {
            write!(f, " {}", self.detail)?;
        }
        writeln!(f, "]")?;
        for c in &self.children {
            c.render(f, depth + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for OpProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_profile_snapshot_and_report() {
        let p = ScanProfile::new();
        p.batches.fetch_add(2, Relaxed);
        p.rows.fetch_add(2048, Relaxed);
        p.blocks_decoded.fetch_add(3, Relaxed);
        p.blocks_skipped.fetch_add(5, Relaxed);
        p.bytes_read.fetch_add(4096, Relaxed);
        p.segments.fetch_add(1, Relaxed);
        p.record_path(MergePath::PdtKernel);
        let s = p.snapshot();
        assert_eq!(s.path_label(), "pdt-kernel");
        let op = OpStats::new("Filter");
        op.batches.fetch_add(2, Relaxed);
        op.rows.fetch_add(100, Relaxed);
        op.wall_ns.fetch_add(1_500_000, Relaxed);
        let report = op.into_op(vec![s.into_op("orders")]);
        let text = report.to_string();
        assert!(
            text.contains("Filter [rows=100 batches=2 time=1.500ms]"),
            "{text}"
        );
        assert!(text.contains("-> Scan orders"), "{text}");
        assert!(text.contains("path=pdt-kernel"), "{text}");
        assert!(text.contains("blocks=3 decoded/5 zone-skipped"), "{text}");
    }

    #[test]
    fn multiple_paths_join() {
        let p = ScanProfile::new();
        p.record_path(MergePath::Clean);
        p.record_path(MergePath::VdtKernel);
        assert_eq!(p.snapshot().path_label(), "clean,vdt-kernel");
        assert_eq!(ScanProfile::new().snapshot().path_label(), "-");
    }
}
