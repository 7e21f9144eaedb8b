//! Table scans: clean, PDT-merging (positional), VDT-merging and
//! row-buffer-merging (both value-based).
//!
//! This operator is where the paper's central comparison materialises:
//!
//! * **PDT mode** reads exactly the projected columns and applies updates
//!   positionally (no key I/O, no key comparisons). Stacked PDTs
//!   (Read/Write/Trans — eq. (9)) are merged in sequence: each layer's
//!   output RIDs are the next layer's SIDs.
//! * **VDT mode** must additionally read **all sort-key columns** and runs
//!   MergeUnion/MergeDiff value comparisons per tuple.
//! * **Rows mode** folds a copy-on-write row buffer ([`rowstore`]) into the
//!   scan — the classic delta-store baseline. Being value-addressed, it
//!   pays the same sort-key I/O and comparison tax as the VDT.
//! * **Clean mode** scans the stable image only (the "no-updates" bars of
//!   Figure 19).
//!
//! Ranged scans resolve a sort-key prefix range to a SID range through the
//! (stale-tolerant) sparse index and position all delta structures
//! accordingly.
//!
//! Every scan counts what it reads and emits in its own [`ScanCounts`],
//! at the place it happens: `explain_analyze` and the DML resolvers read
//! them off the scan, never off a tracker other scans share.

use crate::batch::Batch;
use crate::ops::Operator;
use crate::stats::ScanClock;
use columnar::{ColumnVec, IoStats, IoTracker, ScanRange, StableTable, Value, ValueType};
use pdt::{Pdt, PdtMerger};
use rowstore::{RowBuffer, RowMerger};
use std::fmt;
use std::time::Instant;
use vdt::{Vdt, VdtMerger};

/// Differential layers to merge into the scan.
pub enum DeltaLayers<'a> {
    /// Scan the stable image only.
    None,
    /// Positional merge through a stack of PDTs, bottom layer first
    /// (e.g. `[read_pdt, write_pdt, trans_pdt]`).
    Pdt(Vec<&'a Pdt>),
    /// Value-based merge through a VDT.
    Vdt(&'a Vdt),
    /// Value-based merge through a copy-on-write row buffer.
    Rows(&'a RowBuffer),
}

/// Inclusive sort-key prefix bounds for a ranged scan.
#[derive(Debug, Clone, Default)]
pub struct ScanBounds {
    /// Inclusive lower bound on a sort-key prefix (`None`: unbounded).
    pub lo: Option<Vec<Value>>,
    /// Inclusive upper bound on a sort-key prefix (`None`: unbounded).
    pub hi: Option<Vec<Value>>,
}

/// One horizontal slice of a range-partitioned table, as a scan sees it:
/// the partition's stable image, the delta layers to merge over it, and
/// the global RID of the partition's first visible row. A
/// [`TableScan::union`] walks a vector of these in split order, re-basing
/// each partition's locally consecutive RIDs by `rid_base` so the union
/// emits globally consecutive RIDs.
pub struct ScanSegment<'a> {
    /// The partition's stable image.
    pub stable: &'a StableTable,
    /// The delta layers a scan must merge over it.
    pub layers: DeltaLayers<'a>,
    /// Global visible RID of this partition's first row (the sum of all
    /// earlier partitions' visible row counts).
    pub rid_base: u64,
    /// Tracker this segment's block reads are charged to. The engine
    /// passes each partition's tracker scoped to its heat sink, so a union
    /// scan's block touches attribute to the right partition.
    pub io: IoTracker,
}

/// Merge path a scan segment took, one per partition state — the index
/// of its segment count in [`ScanCounts`].
#[derive(Debug, Clone, Copy)]
enum MergePath {
    /// No delta: blocks decoded straight from stable storage.
    Clean,
    /// PDT delta merged via the typed positional kernels.
    PdtKernel,
    /// VDT delta merged via the typed kernels.
    VdtKernel,
    /// Row-store delta merged via the typed kernels.
    RowsKernel,
}

/// [`MergePath`] labels, in discriminant order.
const PATH_NAMES: [&str; 4] = ["clean", "pdt-kernel", "vdt-kernel", "rows-kernel"];

/// What one [`TableScan`] read and emitted, counted by the scan itself
/// ([`TableScan::counts`]) — the per-query split of the paper's Figure 19
/// into I/O volume and scan time. Nothing here is shared: a scan running
/// beside others on the same tracker counts only its own reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    /// Column blocks and their stored bytes charged to the scan's
    /// trackers: every decoded block of every column read, plus the
    /// sort-key probes that position a ranged by-key merge.
    pub io: IoStats,
    /// Row-group blocks decoded (a block counts once, however many of its
    /// columns were read).
    pub blocks_decoded: u64,
    /// Blocks the zone map pruned off a ranged clean scan.
    pub blocks_skipped: u64,
    /// Batches emitted.
    pub batches: u64,
    /// Rows emitted.
    pub rows: u64,
    /// Wall nanoseconds spent producing batches (decode + merge) — the
    /// same readings the scan charges its [`ScanClock`].
    pub wall_ns: u64,
    /// Partition segments scanned (a segment a rid window passes over is
    /// not).
    pub segments: u64,
    /// Segments scanned per merge path, indexed by `MergePath as usize`.
    paths: [u64; 4],
}

impl ScanCounts {
    /// Comma-joined labels of the merge paths the scanned segments took,
    /// e.g. `"clean,pdt-kernel"` (`"-"` before any segment is scanned).
    pub fn path_label(&self) -> String {
        let names: Vec<&str> = PATH_NAMES
            .into_iter()
            .zip(self.paths)
            .filter(|&(_, segments)| segments > 0)
            .map(|(name, _)| name)
            .collect();
        if names.is_empty() {
            "-".to_string()
        } else {
            names.join(",")
        }
    }

    fn charge(&mut self, io: IoStats) {
        self.io.blocks_read += io.blocks_read;
        self.io.bytes_read += io.bytes_read;
    }
}

/// The `explain_analyze` line: `[rows=… batches=… time=…ms path=…
/// blocks=… decoded/… zone-skipped bytes=… segments=…]`.
impl fmt::Display for ScanCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[rows={} batches={} time={:.3}ms path={} blocks={} decoded/{} zone-skipped bytes={} segments={}]",
            self.rows,
            self.batches,
            self.wall_ns as f64 / 1e6,
            self.path_label(),
            self.blocks_decoded,
            self.blocks_skipped,
            self.io.bytes_read,
            self.segments
        )
    }
}

enum MergeState<'a> {
    None,
    Pdt(Vec<PdtMerger<'a>>),
    ByKey(ByKey<'a>),
}

/// The value-addressed merger of a scan. Both by-key structures fold into
/// a stable block the same way — given the block's sort-key columns — so
/// the scan drives either through these three methods, dispatched once per
/// *block* (never per row); the mergers' own kernels stay monomorphic.
/// (An enum, not a boxed trait object: a `dyn` destructor could touch the
/// borrowed layers, so a scan built in a tail expression could no longer
/// outlive the local view it borrows from.)
enum ByKey<'a> {
    Vdt(Box<VdtMerger<'a>>),
    Rows(Box<RowMerger<'a>>),
}

impl ByKey<'_> {
    fn next_rid(&self) -> u64 {
        match self {
            ByKey::Vdt(m) => m.next_rid(),
            ByKey::Rows(m) => m.next_rid(),
        }
    }

    fn merge_block(
        &mut self,
        len: usize,
        proj: &[usize],
        sk_in: &[ColumnVec],
        cols_in: &[ColumnVec],
        out: &mut [ColumnVec],
    ) {
        match self {
            ByKey::Vdt(m) => m.merge_block(len, proj, sk_in, cols_in, out),
            ByKey::Rows(m) => m.merge_block(len, proj, sk_in, cols_in, out),
        }
    }

    fn drain_inserts(&mut self, upper: Option<&[Value]>, proj: &[usize], out: &mut [ColumnVec]) {
        match self {
            ByKey::Vdt(m) => m.drain_inserts(upper, proj, out),
            ByKey::Rows(m) => m.drain_inserts(upper, proj, out),
        }
    }
}

/// Where a by-key merge finds a block's sort-key columns among the decode
/// buffers — resolved once, in [`TableScan::ranged`].
enum KeyCols {
    /// Adjacent and in key order (always, for a one-column key): the key is
    /// borrowed as `bufs[range]`.
    Borrowed(std::ops::Range<usize>),
    /// Interleaved with other columns: `bufs[at[j]]` is copied into
    /// `scratch[j]` block by block (the allocations are reused).
    Gathered {
        at: Vec<usize>,
        scratch: Vec<ColumnVec>,
    },
}

impl KeyCols {
    /// Locate the sort-key columns `sk` in `io_cols` (which holds them
    /// all); `bufs[p]` is the decode buffer of `io_cols[p]`.
    fn locate(sk: &[usize], io_cols: &[usize], bufs: &[ColumnVec]) -> Self {
        let at: Vec<usize> = sk
            .iter()
            .map(|c| {
                io_cols
                    .iter()
                    .position(|x| x == c)
                    .expect("value_io_cols reads every sort-key column")
            })
            .collect();
        match at.first() {
            Some(&first) if at.windows(2).all(|w| w[1] == w[0] + 1) => {
                KeyCols::Borrowed(first..first + at.len())
            }
            _ => KeyCols::Gathered {
                scratch: at.iter().map(|&p| bufs[p].empty_like()).collect(),
                at,
            },
        }
    }
}

/// The scan operator.
///
/// ## Pinning
///
/// A scan borrows its stable table and delta layers for its whole
/// lifetime — it never re-reads them from the database. The engine's read
/// views hand out these borrows from `Arc`-held snapshots (stable image +
/// committed delta capture), so a scan is pinned to one consistent cut:
/// background maintenance may swap a fresh stable image or retire delta
/// layers mid-scan, and the scan keeps reading the pinned versions,
/// emitting exactly the rows visible when its view opened.
///
/// ## Partitions
///
/// A scan is either single-segment ([`TableScan::new`] /
/// [`TableScan::ranged`], the unpartitioned case — all RIDs local) or a
/// union over the ordered partitions of a range-partitioned table
/// ([`TableScan::union`]): each partition runs the same per-segment merge
/// machinery against its own stable slice and delta layers, and the union
/// re-bases every emitted batch by the partition's `rid_base` so output
/// RIDs stay globally consecutive across split points.
pub struct TableScan<'a> {
    table: &'a StableTable,
    proj: Vec<usize>,
    range: ScanRange,
    /// Value types of `proj`, in projection order.
    types: Vec<ValueType>,
    /// columns actually read from storage (proj ∪ sort key for VDT mode)
    io_cols: Vec<usize>,
    /// One decode buffer per `io_cols` entry. A block is decoded into them
    /// in place; a merge that copies (or emits nothing of) a buffer leaves
    /// its allocation here for the next block, one that passes the decoded
    /// vector on as the output leaves an empty column behind.
    bufs: Vec<ColumnVec>,
    /// One merge output buffer per projected column (see
    /// [`PdtMerger::merge_block_owned`]; the by-key arm merges into it).
    spare: Vec<ColumnVec>,
    /// The sort-key columns among `bufs` (by-key merges only).
    sk: KeyCols,
    state: MergeState<'a>,
    next_block: usize,
    end_block: usize,
    /// The *current segment* is exhausted (the union may still advance).
    finished: bool,
    io: IoTracker,
    clock: ScanClock,
    /// How the current segment's delta is merged.
    path: MergePath,
    drain_upper: Option<Vec<Value>>,
    /// RID of the first row this scan would emit (even if it emits none —
    /// e.g. a fully ghosted range); DML rank computations rely on it.
    /// Global for unions (first segment's base + its local start).
    start_rid: u64,
    /// Visible-rid output window `[rid_lo, rid_hi)` in *global* RIDs — see
    /// [`TableScan::clamp_rids`].
    rid_lo: u64,
    rid_hi: u64,
    /// Global RID of the current segment's first visible row (0 for
    /// single-segment scans).
    rid_base: u64,
    /// Remaining partition segments, in split order.
    pending: std::collections::VecDeque<ScanSegment<'a>>,
    /// The whole scan (every segment) is exhausted, or the rid window's
    /// upper edge was passed.
    done: bool,
    /// Some batch has been emitted (freezes `start_rid` across segment
    /// advances).
    emitted: bool,
    /// Kept across segment advances so `bounds` can re-resolve per slice.
    bounds: ScanBounds,
    /// Blocks the zone map pruned off this segment's range in
    /// [`TableScan::ranged`] (clean scans only).
    zone_skipped: u64,
    /// The current segment's path and zone-skips are in `counts`: a
    /// segment counts once the scan enters it.
    entered: bool,
    /// What the scan read and emitted, over every segment so far.
    counts: ScanCounts,
}

impl<'a> TableScan<'a> {
    /// Full-table scan.
    pub fn new(
        table: &'a StableTable,
        delta: DeltaLayers<'a>,
        proj: Vec<usize>,
        io: IoTracker,
        clock: ScanClock,
    ) -> Self {
        Self::ranged(table, delta, proj, ScanBounds::default(), io, clock)
    }

    /// Ranged scan over a sort-key prefix interval (both bounds inclusive).
    pub fn ranged(
        table: &'a StableTable,
        delta: DeltaLayers<'a>,
        proj: Vec<usize>,
        bounds: ScanBounds,
        io: IoTracker,
        clock: ScanClock,
    ) -> Self {
        let range = table.sid_range(bounds.lo.as_deref(), bounds.hi.as_deref());
        let mut start_rid = range.start;
        let mut counts = ScanCounts::default();
        // by-key mergers start at the range's first stable key, or at the
        // very beginning (before any buffered row) for a scan from SID 0
        let mut start_key =
            || (range.start != 0).then(|| probe_key(table, range.start, &io, &mut counts));
        let (state, path) = match delta {
            DeltaLayers::None => (MergeState::None, MergePath::Clean),
            DeltaLayers::Pdt(layers) => {
                // stack the mergers: each layer starts where the previous
                // layer's output begins
                let mut mergers = Vec::with_capacity(layers.len());
                let mut start = range.start;
                for p in layers {
                    let m = PdtMerger::new(p, start);
                    start = m.next_rid();
                    mergers.push(m);
                }
                start_rid = start;
                (MergeState::Pdt(mergers), MergePath::PdtKernel)
            }
            DeltaLayers::Vdt(v) => (
                MergeState::ByKey(ByKey::Vdt(Box::new(match start_key() {
                    None => VdtMerger::new(v),
                    Some(key) => VdtMerger::new_ranged(v, range.start, &key),
                }))),
                MergePath::VdtKernel,
            ),
            DeltaLayers::Rows(rb) => (
                MergeState::ByKey(ByKey::Rows(Box::new(match start_key() {
                    None => RowMerger::new(rb),
                    Some(key) => RowMerger::new_ranged(rb, range.start, &key),
                }))),
                MergePath::RowsKernel,
            ),
        };
        // a by-key merge also reads the sort-key columns, and a ranged one
        // must know where to stop draining buffered rows: at the sort key
        // of the first stable row past the range
        let (io_cols, drain_upper) = match &state {
            MergeState::ByKey(merger) => {
                start_rid = merger.next_rid();
                let upper = (range.end < table.row_count())
                    .then(|| probe_key(table, range.end, &io, &mut counts));
                (value_io_cols(table, &proj), upper)
            }
            _ => (proj.clone(), None),
        };
        let mut zone_skipped = 0u64;
        let (next_block, end_block) = if range.is_empty() {
            (usize::MAX, 0)
        } else {
            let mut first = table.block_of(range.start);
            let mut last = table.block_of(range.end.saturating_sub(1)) + 1;
            if matches!(state, MergeState::None) {
                let conservative = (last - first) as u64;
                // Clean scans may skip blocks via the exact per-block
                // min/max zone map: `sid_range` stays over-inclusive (one
                // block early) so positionally patched scans never lose
                // ghost-relative inserts, but with no differential layer a
                // skipped block provably holds no qualifying row. Merging
                // scans must keep the conservative range — their mergers
                // consume blocks in SID order.
                let (lo_b, hi_b) =
                    table.block_range_for(bounds.lo.as_deref(), bounds.hi.as_deref());
                first = first.max(lo_b);
                last = last.min(hi_b);
                // Every skipped leading row sorts below `lo`, so the rank
                // of the scan's first (potential) output row — what DML
                // insert positioning reads off `start_rid` — anchors at
                // the first surviving block, or at the range's end when
                // no block survives.
                let anchor = if first >= table.num_blocks() {
                    range.end
                } else {
                    table.block_range(first).0
                };
                start_rid = start_rid.max(anchor).min(range.end);
                zone_skipped = conservative
                    - if first < last {
                        (last - first) as u64
                    } else {
                        0
                    };
            }
            if first < last {
                (first, last)
            } else {
                (usize::MAX, 0)
            }
        };
        let finished = next_block == usize::MAX && matches!(state, MergeState::None);
        let types: Vec<ValueType> = proj.iter().map(|&c| table.schema().vtype(c)).collect();
        let bufs: Vec<ColumnVec> = io_cols
            .iter()
            .map(|&c| ColumnVec::new(table.schema().vtype(c)))
            .collect();
        let sk = match &state {
            MergeState::ByKey(_) => KeyCols::locate(table.sort_key().cols(), &io_cols, &bufs),
            _ => KeyCols::Borrowed(0..0),
        };
        TableScan {
            table,
            bufs,
            spare: empty_cols(&types),
            types,
            sk,
            proj,
            range,
            io_cols,
            state,
            next_block,
            end_block,
            finished,
            io,
            clock,
            path,
            drain_upper,
            start_rid,
            rid_lo: 0,
            rid_hi: u64::MAX,
            rid_base: 0,
            pending: std::collections::VecDeque::new(),
            done: false,
            emitted: false,
            bounds,
            zone_skipped,
            entered: false,
            counts,
        }
    }

    /// What the scan has read and emitted so far.
    pub fn counts(&self) -> &ScanCounts {
        &self.counts
    }

    /// Union scan over the ordered partitions of a range-partitioned
    /// table: every segment is scanned with the same projection and
    /// sort-key bounds (each partition resolves the bounds against its own
    /// sparse index), and emitted RIDs are re-based by each segment's
    /// `rid_base` so the union's output is globally rid-consecutive —
    /// batch `rid_start`s continue across split points exactly as if the
    /// table were one image. `segments` must be non-empty and ordered by
    /// `rid_base`.
    pub fn union(
        mut segments: Vec<ScanSegment<'a>>,
        proj: Vec<usize>,
        bounds: ScanBounds,
        clock: ScanClock,
    ) -> Self {
        assert!(!segments.is_empty(), "union scan needs ≥ 1 segment");
        let rest: std::collections::VecDeque<ScanSegment<'a>> = segments.split_off(1).into();
        let first = segments.pop().expect("non-empty");
        let mut scan = TableScan::ranged(first.stable, first.layers, proj, bounds, first.io, clock);
        scan.rid_base = first.rid_base;
        scan.start_rid += first.rid_base;
        scan.pending = rest;
        scan
    }

    /// Drop the current segment and re-initialise the scan over the next
    /// pending one (preserving the global rid window and, once any row
    /// has been emitted, `start_rid`). Returns `false` when no segment
    /// remains. Segments that end at or before the window's lower edge
    /// are skipped without touching their blocks — the per-partition
    /// clamp that keeps rid-window scans from paying for partitions
    /// wholly outside the window.
    fn advance_segment(&mut self) -> bool {
        loop {
            let Some(seg) = self.pending.pop_front() else {
                return false;
            };
            // this segment spans [seg.rid_base, next.rid_base): skip it
            // when the window starts at or past its end
            if let Some(next) = self.pending.front() {
                if next.rid_base <= self.rid_lo {
                    continue;
                }
            }
            let mut fresh = TableScan::ranged(
                seg.stable,
                seg.layers,
                std::mem::take(&mut self.proj),
                self.bounds.clone(),
                seg.io,
                self.clock.clone(),
            );
            // the fresh segment's key probes join the union's counts
            let probes = fresh.counts.io;
            fresh.counts = self.counts;
            fresh.counts.charge(probes);
            fresh.rid_base = seg.rid_base;
            fresh.rid_lo = self.rid_lo;
            fresh.rid_hi = self.rid_hi;
            // start_rid is the rank of the first row the *union* would
            // emit: while earlier segments emitted nothing (their ranges
            // resolved empty), the fresh segment's rank supersedes theirs
            fresh.start_rid = if self.emitted {
                self.start_rid
            } else {
                seg.rid_base + fresh.start_rid
            };
            fresh.emitted = self.emitted;
            fresh.pending = std::mem::take(&mut self.pending);
            *self = fresh;
            return true;
        }
    }

    /// Restrict the scan's *output* to the visible positions `[lo, hi)`
    /// (global positions for a partition union). Batches before the window
    /// are skipped, the batch straddling an edge is sliced, and the scan
    /// finishes as soon as it passes `hi`. Block I/O within the window is
    /// unchanged: positions only map to blocks directly when no delta is
    /// merged, so the clamp trims rows, not reads — every block from the
    /// segment's first up to the window's end is decoded. That is why
    /// positional DML does not find its rows this way on a positional
    /// table ([`gather_rows`](crate::gather_rows) walks the PDT instead);
    /// the clamp remains the by-key arm of that gather, and the window
    /// form of a read scan. For a union the window is clamped **per
    /// partition**: each segment's batches are re-based to global RIDs
    /// before clipping, a window straddling a split point takes the tail
    /// of one partition and the head of the next, and partitions wholly
    /// below the window are skipped without any block I/O.
    pub fn clamp_rids(&mut self, lo: u64, hi: u64) {
        self.rid_lo = lo;
        self.rid_hi = hi;
        // the current segment spans [rid_base, next.rid_base): when the
        // window starts at or past its end, replace it unscanned (and
        // uncounted) — `advance_segment` skips any further wholly-below
        // segments too, and never the last one
        if self.pending.front().is_some_and(|next| next.rid_base <= lo) {
            self.advance_segment();
        }
    }

    /// Slice `b` (already re-based to global RIDs) to the rid window;
    /// `None` means "outside, keep going" — unless the scan was marked
    /// done by passing the window's end.
    fn clip_to_window(&mut self, b: Batch) -> Option<Batch> {
        let start = b.rid_start;
        let end = start + b.num_rows() as u64;
        if start >= self.rid_hi {
            // every later batch — and every later partition — is past the
            // window: the whole union is done, not just this segment
            self.done = true;
            return None;
        }
        if end <= self.rid_lo {
            return None;
        }
        if start >= self.rid_lo && end <= self.rid_hi {
            return Some(b);
        }
        let lo = self.rid_lo.max(start);
        let hi = self.rid_hi.min(end);
        let cols = b
            .cols
            .iter()
            .map(|c| c.slice_range((lo - start) as usize, (hi - start) as usize))
            .collect();
        Some(Batch {
            cols,
            rid_start: lo,
        })
    }

    /// RID of the first row this scan would emit: the rank of the scan
    /// range's start in the visible (merged) image. Valid even when the
    /// whole range is ghosted and the scan emits nothing — the property
    /// insert-positioning DML depends on.
    pub fn start_rid(&self) -> u64 {
        self.start_rid
    }

    /// Decode the scan's columns for block `b` into `self.bufs`, clipped
    /// in place to the scan range. Returns the SID of the first row kept
    /// and how many rows were.
    fn read_block(&mut self, b: usize) -> (u64, usize) {
        let (bstart, bend) = self.table.block_range(b);
        let lo = self.range.start.max(bstart);
        let hi = self.range.end.min(bend);
        for (buf, &c) in self.bufs.iter_mut().zip(&self.io_cols) {
            self.table
                .read_block_into(c, b, &self.io, buf)
                .expect("block within table");
            if (lo, hi) != (bstart, bend) {
                // representation-preserving: coded blocks stay coded
                buf.retain_range((lo - bstart) as usize, (hi - bstart) as usize);
            }
        }
        self.counts.blocks_decoded += 1;
        self.counts.charge(block_io(self.table, &self.io_cols, b));
        (lo, (hi - lo) as usize)
    }

    /// Push the block of `len` rows in `cols` (SIDs from `start`) through
    /// the PDT layers `mergers`, bottom first — each layer's output RIDs
    /// are the next layer's SIDs. Each layer classifies the block for
    /// itself: one that has no entry in its span leaves `cols` exactly as it
    /// found them. Returns the RID of the merged block's first row.
    fn feed_pdt(
        mergers: &mut [PdtMerger<'a>],
        proj: &[usize],
        mut start: u64,
        mut len: usize,
        cols: &mut [ColumnVec],
        spare: &mut [ColumnVec],
    ) -> u64 {
        for m in mergers.iter_mut() {
            let rid0 = m.next_rid();
            m.merge_block_owned(start, len, proj, cols, spare);
            start = rid0;
            len = (m.next_rid() - rid0) as usize;
        }
        start
    }

    /// Drain trailing inserts of every PDT layer (after the last block).
    fn finish_pdt(&mut self) -> Option<Batch> {
        let MergeState::Pdt(ref mut mergers) = self.state else {
            return None;
        };
        let mut collected = empty_cols(&self.types);
        let mut rid_start = None;
        let mut end = self.range.end;
        for k in 0..mergers.len() {
            // drain layer k at its input end, then push the drained rows
            // through the layers above it
            let rid0 = mergers[k].next_rid();
            let mut drained = empty_cols(&self.types);
            mergers[k].drain_inserts_at(end, &self.proj, &mut drained);
            end = mergers[k].next_rid(); // input end for layer k+1
            if end > rid0 {
                let r0 = Self::feed_pdt(
                    &mut mergers[k + 1..],
                    &self.proj,
                    rid0,
                    (end - rid0) as usize,
                    &mut drained,
                    &mut self.spare,
                );
                rid_start.get_or_insert(r0);
                for (o, c) in collected.iter_mut().zip(&drained) {
                    o.extend_range(c, 0, c.len());
                }
            }
        }
        if collected[0].is_empty() {
            None
        } else {
            Some(Batch {
                cols: collected,
                rid_start: rid_start.unwrap_or(0),
            })
        }
    }
}

/// One empty column per type.
fn empty_cols(types: &[ValueType]) -> Vec<ColumnVec> {
    types.iter().map(|&t| ColumnVec::new(t)).collect()
}

/// Move the columns out as a batch's, leaving empty ones of the same
/// representation behind.
fn take_cols(cols: &mut [ColumnVec]) -> Vec<ColumnVec> {
    cols.iter_mut()
        .map(|c| {
            let empty = c.empty_like();
            std::mem::replace(c, empty)
        })
        .collect()
}

/// Columns a value-based merge must read: the projection plus every
/// sort-key column (the tax positional merging avoids).
fn value_io_cols(table: &StableTable, proj: &[usize]) -> Vec<usize> {
    let mut io_cols = proj.to_vec();
    for &c in table.sort_key().cols() {
        if !io_cols.contains(&c) {
            io_cols.push(c);
        }
    }
    io_cols
}

/// What reading block `b` of columns `cols` charges a tracker.
fn block_io(table: &StableTable, cols: &[usize], b: usize) -> IoStats {
    IoStats {
        blocks_read: cols.len() as u64,
        bytes_read: cols
            .iter()
            .map(|&c| table.column_blocks(c)[b].stored_bytes())
            .sum(),
    }
}

/// Sort key of stable row `sid` (a ranged by-key merge's start or drain
/// bound), read through `io` and charged to `counts` as well.
fn probe_key(table: &StableTable, sid: u64, io: &IoTracker, counts: &mut ScanCounts) -> Vec<Value> {
    let key = table
        .sk_of_row(sid, io)
        .expect("scan range bounds lie within the table");
    counts.charge(block_io(
        table,
        table.sort_key().cols(),
        table.block_of(sid),
    ));
    key
}

impl<'a> Operator for TableScan<'a> {
    fn next_batch(&mut self) -> Option<Batch> {
        // a batch may be legitimately empty mid-stream (fully deleted
        // block): loop — not recurse — to the next one, so a long run of
        // ghosted blocks (common right before a checkpoint retires heavy
        // deletes) cannot grow the stack with the table
        loop {
            if self.done {
                return None;
            }
            if !self.entered {
                self.entered = true;
                self.counts.segments += 1;
                self.counts.paths[self.path as usize] += 1;
                self.counts.blocks_skipped += self.zone_skipped;
            }
            if self.finished {
                // current segment exhausted: next partition, if any
                if !self.advance_segment() {
                    self.done = true;
                    return None;
                }
                continue;
            }
            let t0 = Instant::now();
            let out = self.produce();
            self.counts.wall_ns += self.clock.charge(t0);
            let Some(mut b) = out else {
                continue; // `produce` marked the segment finished
            };
            if b.is_empty() {
                continue;
            }
            // partition-local → global RIDs, then clip globally
            b.rid_start += self.rid_base;
            self.emitted = true;
            match self.clip_to_window(b) {
                // dictionary-coded string columns leave the scan as codes:
                // merge, clipping and stacking ran on u32 codes, and a
                // string is decoded only where an operator reads it
                Some(clipped) => {
                    self.counts.batches += 1;
                    self.counts.rows += clipped.num_rows() as u64;
                    return Some(clipped);
                }
                None => continue,
            }
        }
    }

    fn out_types(&self) -> Vec<ValueType> {
        self.types.clone()
    }
}

impl<'a> TableScan<'a> {
    fn produce(&mut self) -> Option<Batch> {
        'produce: {
            // blocks remaining?
            if self.next_block != usize::MAX && self.next_block < self.end_block {
                let b = self.next_block;
                self.next_block += 1;
                let (start_sid, len) = self.read_block(b);
                match &mut self.state {
                    MergeState::None => {
                        break 'produce Some(Batch {
                            cols: take_cols(&mut self.bufs),
                            rid_start: start_sid,
                        });
                    }
                    MergeState::Pdt(mergers) => {
                        let rid0 = Self::feed_pdt(
                            mergers,
                            &self.proj,
                            start_sid,
                            len,
                            &mut self.bufs,
                            &mut self.spare,
                        );
                        let cols = take_cols(&mut self.bufs);
                        // a layer that had to copy left the decode buffers
                        // in `spare`: the next block decodes into them
                        std::mem::swap(&mut self.bufs, &mut self.spare);
                        break 'produce Some(Batch {
                            cols,
                            rid_start: rid0,
                        });
                    }
                    MergeState::ByKey(merger) => {
                        // the decoded columns are the projection, then any
                        // sort-key column the projection lacks
                        let cols_in = &self.bufs[..self.proj.len()];
                        let sk_in: &[ColumnVec] = match &mut self.sk {
                            KeyCols::Borrowed(at) => &self.bufs[at.clone()],
                            KeyCols::Gathered { at, scratch } => {
                                for (s, &p) in scratch.iter_mut().zip(at.iter()) {
                                    s.reset_like(&self.bufs[p]);
                                    s.extend_range(&self.bufs[p], 0, len);
                                }
                                scratch
                            }
                        };
                        // coded inputs get coded outputs so the merge stays
                        // on the u32 path
                        for (s, c) in self.spare.iter_mut().zip(cols_in) {
                            s.reset_like(c);
                        }
                        let rid0 = merger.next_rid();
                        merger.merge_block(len, &self.proj, sk_in, cols_in, &mut self.spare);
                        break 'produce Some(Batch {
                            cols: take_cols(&mut self.spare),
                            rid_start: rid0,
                        });
                    }
                }
            }
            // blocks exhausted: drain pending inserts once
            self.finished = true;
            match &mut self.state {
                MergeState::None => None,
                MergeState::Pdt(_) => {
                    break 'produce self.finish_pdt();
                }
                MergeState::ByKey(merger) => {
                    let mut out = empty_cols(&self.types);
                    let rid0 = merger.next_rid();
                    merger.drain_inserts(self.drain_upper.as_deref(), &self.proj, &mut out);
                    if out[0].is_empty() {
                        None
                    } else {
                        Some(Batch {
                            cols: out,
                            rid_start: rid0,
                        })
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for TableScan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableScan")
            .field("proj", &self.proj)
            .field("range", &self.range)
            .field("path", &self.path)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::run_to_rows;
    use columnar::{Schema, TableMeta, TableOptions, Tuple};
    use pdt::checkpoint::merge_rows;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Str),
        ])
    }

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i * 10),
                    Value::Int(i),
                    Value::Str(format!("r{i}")),
                ]
            })
            .collect()
    }

    fn table(n: i64) -> StableTable {
        StableTable::bulk_load(
            TableMeta::new("t", schema(), vec![0]),
            TableOptions {
                block_rows: 4,
                compressed: true,
            },
            &rows(n),
        )
        .unwrap()
    }

    fn updated_pdt() -> Pdt {
        let mut p = Pdt::new(schema(), vec![0]);
        p.add_insert(
            0,
            0,
            &[Value::Int(-5), Value::Int(99), Value::Str("new".into())],
        );
        p.add_delete(3, &[Value::Int(20)]); // stable 2
        p.add_modify(5, 1, &Value::Int(-4)); // stable 4
                                             // append at the end: 20 stable + 1 ins − 1 del = rid 20
        p.add_insert(
            20,
            20,
            &[Value::Int(999), Value::Int(0), Value::Str("tail".into())],
        );
        p
    }

    #[test]
    fn clean_scan_roundtrip() {
        let t = table(20);
        let io = IoTracker::new();
        let clock = ScanClock::new();
        let mut scan = TableScan::new(&t, DeltaLayers::None, vec![0, 1, 2], io, clock.clone());
        assert_eq!(run_to_rows(&mut scan), rows(20));
        assert!(clock.nanos() > 0);
    }

    #[test]
    fn pdt_scan_matches_row_merge() {
        let t = table(20);
        let p = updated_pdt();
        let io = IoTracker::new();
        let mut scan = TableScan::new(
            &t,
            DeltaLayers::Pdt(vec![&p]),
            vec![0, 1, 2],
            io,
            ScanClock::new(),
        );
        assert_eq!(run_to_rows(&mut scan), merge_rows(&rows(20), &p));
    }

    #[test]
    fn stacked_pdt_scan() {
        let t = table(20);
        let lower = updated_pdt();
        let mid = merge_rows(&rows(20), &lower);
        let mut upper = Pdt::new(schema(), vec![0]);
        upper.add_delete(0, &[Value::Int(-5)]); // delete the lower insert
        upper.add_modify(4, 2, &Value::Str("upper".into()));
        // after upper's delete at rid 0, rid 7 corresponds to sid 8
        upper.add_insert(
            8,
            7,
            &[Value::Int(55), Value::Int(5), Value::Str("u-ins".into())],
        );
        let want = merge_rows(&mid, &upper);
        let io = IoTracker::new();
        let mut scan = TableScan::new(
            &t,
            DeltaLayers::Pdt(vec![&lower, &upper]),
            vec![0, 1, 2],
            io,
            ScanClock::new(),
        );
        assert_eq!(run_to_rows(&mut scan), want);
    }

    #[test]
    fn vdt_scan_matches_row_merge() {
        let t = table(20);
        let mut v = Vdt::new(schema(), vec![0]);
        v.insert(vec![
            Value::Int(-5),
            Value::Int(99),
            Value::Str("new".into()),
        ]);
        v.delete(&[Value::Int(20)]);
        v.modify(&rows(20)[4], 1, Value::Int(-4));
        v.insert(vec![Value::Int(999), Value::Int(0), Value::Str("t".into())]);
        let want = v.merge_rows(&rows(20));
        let io = IoTracker::new();
        let mut scan = TableScan::new(
            &t,
            DeltaLayers::Vdt(&v),
            vec![0, 1, 2],
            io,
            ScanClock::new(),
        );
        assert_eq!(run_to_rows(&mut scan), want);
    }

    #[test]
    fn rows_scan_matches_row_merge() {
        let t = table(20);
        let base = rows(20);
        let mut b = RowBuffer::new(schema(), vec![0]);
        b.insert(vec![
            Value::Int(-5),
            Value::Int(99),
            Value::Str("new".into()),
        ]);
        b.delete_key(&[Value::Int(20)]);
        b.modify(&base[4], 1, Value::Int(-4));
        b.insert(vec![Value::Int(999), Value::Int(0), Value::Str("t".into())]);
        let want = b.merge_rows(&base);
        let io = IoTracker::new();
        let mut scan = TableScan::new(
            &t,
            DeltaLayers::Rows(&b),
            vec![0, 1, 2],
            io,
            ScanClock::new(),
        );
        assert_eq!(run_to_rows(&mut scan), want);
    }

    #[test]
    fn ranged_scan_rows_matches_filtered_full_scan() {
        let t = table(40);
        let mut b = RowBuffer::new(schema(), vec![0]);
        b.delete_key(&[Value::Int(200)]);
        b.insert(vec![Value::Int(195), Value::Int(0), Value::Str("g".into())]);
        let io = IoTracker::new();
        let mut scan = TableScan::ranged(
            &t,
            DeltaLayers::Rows(&b),
            vec![0],
            ScanBounds {
                lo: Some(vec![Value::Int(190)]),
                hi: Some(vec![Value::Int(210)]),
            },
            io,
            ScanClock::new(),
        );
        let got = run_to_rows(&mut scan);
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert!(keys.contains(&195) && !keys.contains(&200));
    }

    #[test]
    fn rows_scan_pays_key_column_io_like_vdt() {
        let t = table(1000);
        let b = RowBuffer::new(schema(), vec![0]);
        let p = Pdt::new(schema(), vec![0]);
        let io_pdt = IoTracker::new();
        let mut scan = TableScan::new(
            &t,
            DeltaLayers::Pdt(vec![&p]),
            vec![1],
            io_pdt.clone(),
            ScanClock::new(),
        );
        while scan.next_batch().is_some() {}
        let io_rows = IoTracker::new();
        let mut scan = TableScan::new(
            &t,
            DeltaLayers::Rows(&b),
            vec![1],
            io_rows.clone(),
            ScanClock::new(),
        );
        while scan.next_batch().is_some() {}
        assert!(
            io_rows.stats().bytes_read > io_pdt.stats().bytes_read,
            "row-buffer merging must read the sort-key column: {} vs {}",
            io_rows.stats().bytes_read,
            io_pdt.stats().bytes_read
        );
    }

    #[test]
    fn vdt_pays_key_column_io_pdt_does_not() {
        let t = table(1000);
        let p = Pdt::new(schema(), vec![0]);
        let v = Vdt::new(schema(), vec![0]);
        // project only column 1 (not the sort key)
        let io_pdt = IoTracker::new();
        let mut scan = TableScan::new(
            &t,
            DeltaLayers::Pdt(vec![&p]),
            vec![1],
            io_pdt.clone(),
            ScanClock::new(),
        );
        while scan.next_batch().is_some() {}
        let io_vdt = IoTracker::new();
        let mut scan = TableScan::new(
            &t,
            DeltaLayers::Vdt(&v),
            vec![1],
            io_vdt.clone(),
            ScanClock::new(),
        );
        while scan.next_batch().is_some() {}
        assert!(
            io_vdt.stats().bytes_read > io_pdt.stats().bytes_read,
            "VDT must read the sort-key column: {} vs {}",
            io_vdt.stats().bytes_read,
            io_pdt.stats().bytes_read
        );
    }

    #[test]
    fn ranged_scan_pdt_covers_predicate() {
        let t = table(40);
        let mut p = Pdt::new(schema(), vec![0]);
        // delete key 200 (sid 20, rid 20) then insert 195 before the ghost
        p.add_delete(20, &[Value::Int(200)]);
        let sid = p.sk_rid_to_sid(&[Value::Int(195)], 20);
        assert_eq!(sid, 20);
        p.add_insert(
            sid,
            20,
            &[Value::Int(195), Value::Int(0), Value::Str("g".into())],
        );
        let io = IoTracker::new();
        let mut scan = TableScan::ranged(
            &t,
            DeltaLayers::Pdt(vec![&p]),
            vec![0],
            ScanBounds {
                lo: Some(vec![Value::Int(190)]),
                hi: Some(vec![Value::Int(210)]),
            },
            io.clone(),
            ScanClock::new(),
        );
        let got = run_to_rows(&mut scan);
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert!(keys.contains(&190) && keys.contains(&195) && keys.contains(&210));
        assert!(!keys.contains(&200));
        // ranged: must not have read the whole table
        let full = t.total_bytes();
        assert!(io.stats().bytes_read < full / 2);
    }

    /// A clean ranged scan may use the exact per-block zone map and skip
    /// the extra leading block `sid_range` keeps for ghost-relative
    /// inserts; a merging scan over the same bounds must not.
    #[test]
    fn clean_ranged_scan_skips_blocks_via_zone_map() {
        let t = table(40);
        let bounds = || ScanBounds {
            lo: Some(vec![Value::Int(200)]),
            hi: Some(vec![Value::Int(250)]),
        };
        let in_range = |r: &Tuple| (200..=250).contains(&r[0].as_int());
        let p = Pdt::new(schema(), vec![0]);
        let io_merged = IoTracker::new();
        let mut merged = TableScan::ranged(
            &t,
            DeltaLayers::Pdt(vec![&p]),
            vec![0, 1, 2],
            bounds(),
            io_merged.clone(),
            ScanClock::new(),
        );
        let want: Vec<Tuple> = run_to_rows(&mut merged)
            .into_iter()
            .filter(|r| in_range(r))
            .collect();
        let io_clean = IoTracker::new();
        let mut clean = TableScan::ranged(
            &t,
            DeltaLayers::None,
            vec![0, 1, 2],
            bounds(),
            io_clean.clone(),
            ScanClock::new(),
        );
        let got: Vec<Tuple> = run_to_rows(&mut clean)
            .into_iter()
            .filter(|r| in_range(r))
            .collect();
        assert_eq!(got, want, "zone-map skipping must not drop qualifying rows");
        assert_eq!(got.len(), 6, "keys 200..=250 step 10");
        assert!(
            io_clean.stats().blocks_read < io_merged.stats().blocks_read,
            "clean scan must skip the over-inclusive leading block: {} vs {} blocks",
            io_clean.stats().blocks_read,
            io_merged.stats().blocks_read
        );
        assert!(io_clean.stats().bytes_read < io_merged.stats().bytes_read);
    }

    /// When the zone map skips leading blocks, `start_rid` must advance
    /// past them — DML insert positioning ranks keys against it, and a
    /// stale conservative rank would file inserts at ghost positions.
    #[test]
    fn clean_ranged_scan_start_rid_anchors_past_skipped_blocks() {
        let t = table(40); // keys 0..390
                           // lo beyond every key: all blocks skipped, rank = row count
        let mut scan = TableScan::ranged(
            &t,
            DeltaLayers::None,
            vec![0],
            ScanBounds {
                lo: Some(vec![Value::Int(500)]),
                hi: None,
            },
            IoTracker::new(),
            ScanClock::new(),
        );
        assert!(scan.next_batch().is_none());
        assert_eq!(scan.start_rid(), 40);
        // lo mid-table: rank anchors at the first surviving block, which
        // is also the first emitted row
        let mut scan = TableScan::ranged(
            &t,
            DeltaLayers::None,
            vec![0],
            ScanBounds {
                lo: Some(vec![Value::Int(200)]),
                hi: None,
            },
            IoTracker::new(),
            ScanClock::new(),
        );
        let first = scan.next_batch().expect("tail of the table qualifies");
        assert_eq!(first.rid_start, 20, "sid of key 200");
        assert_eq!(scan.start_rid(), first.rid_start);
    }

    #[test]
    fn ranged_scan_vdt_matches_filtered_full_scan() {
        let t = table(40);
        let mut v = Vdt::new(schema(), vec![0]);
        v.delete(&[Value::Int(200)]);
        v.insert(vec![Value::Int(195), Value::Int(0), Value::Str("g".into())]);
        let io = IoTracker::new();
        let mut scan = TableScan::ranged(
            &t,
            DeltaLayers::Vdt(&v),
            vec![0],
            ScanBounds {
                lo: Some(vec![Value::Int(190)]),
                hi: Some(vec![Value::Int(210)]),
            },
            io,
            ScanClock::new(),
        );
        let got = run_to_rows(&mut scan);
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert!(keys.contains(&195) && !keys.contains(&200));
    }

    #[test]
    fn rid_clamp_slices_and_early_exits() {
        let t = table(20);
        let p = updated_pdt();
        for (lo, hi) in [(0u64, 21u64), (3, 9), (0, 1), (19, 21), (7, 7)] {
            let io = IoTracker::new();
            let mut full = TableScan::new(
                &t,
                DeltaLayers::Pdt(vec![&p]),
                vec![0, 1, 2],
                io.clone(),
                ScanClock::new(),
            );
            let all = run_to_rows(&mut full);
            let mut clamped = TableScan::new(
                &t,
                DeltaLayers::Pdt(vec![&p]),
                vec![0, 1, 2],
                io.clone(),
                ScanClock::new(),
            );
            clamped.clamp_rids(lo, hi);
            let want: Vec<Tuple> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i as u64) >= lo && (*i as u64) < hi)
                .map(|(_, r)| r.clone())
                .collect();
            let mut got = Vec::new();
            let mut expect_rid = lo;
            while let Some(b) = clamped.next_batch() {
                assert_eq!(b.rid_start, expect_rid, "clamped batches stay consecutive");
                expect_rid += b.num_rows() as u64;
                got.extend(b.rows());
            }
            assert_eq!(got, want, "window [{lo},{hi})");
        }
    }

    /// Stable slice holding rows `lo..lo+n` of the keyspace (keys `i*10`).
    fn table_slice(lo: i64, n: i64) -> StableTable {
        let rows: Vec<Tuple> = (lo..lo + n)
            .map(|i| {
                vec![
                    Value::Int(i * 10),
                    Value::Int(i),
                    Value::Str(format!("r{i}")),
                ]
            })
            .collect();
        StableTable::bulk_load(
            TableMeta::new("t", schema(), vec![0]),
            TableOptions {
                block_rows: 4,
                compressed: true,
            },
            &rows,
        )
        .unwrap()
    }

    /// Two partitions (rows 0..20 and 20..40 of the keyspace), each with
    /// its own delta: one delete + one insert per partition, so the
    /// partition visible counts stay at 20 each.
    fn two_partition_fixture() -> (StableTable, StableTable, Pdt, Pdt) {
        let p0 = table_slice(0, 20);
        let p1 = table_slice(20, 20);
        let mut d0 = Pdt::new(schema(), vec![0]);
        d0.add_delete(3, &[Value::Int(30)]);
        d0.add_insert(
            7,
            6,
            &[Value::Int(65), Value::Int(0), Value::Str("n0".into())],
        );
        let mut d1 = Pdt::new(schema(), vec![0]);
        d1.add_delete(5, &[Value::Int(250)]);
        d1.add_insert(
            0,
            0,
            &[Value::Int(195), Value::Int(0), Value::Str("n1".into())],
        );
        (p0, p1, d0, d1)
    }

    #[test]
    fn union_scan_emits_globally_consecutive_rids() {
        let (p0, p1, d0, d1) = two_partition_fixture();
        // per-partition reference scans
        let io = IoTracker::new();
        let mut s0 = TableScan::new(
            &p0,
            DeltaLayers::Pdt(vec![&d0]),
            vec![0, 1, 2],
            io.clone(),
            ScanClock::new(),
        );
        let mut want = run_to_rows(&mut s0);
        let part0_visible = want.len() as u64;
        let mut s1 = TableScan::new(
            &p1,
            DeltaLayers::Pdt(vec![&d1]),
            vec![0, 1, 2],
            io.clone(),
            ScanClock::new(),
        );
        want.extend(run_to_rows(&mut s1));

        let mut union = TableScan::union(
            vec![
                ScanSegment {
                    stable: &p0,
                    layers: DeltaLayers::Pdt(vec![&d0]),
                    rid_base: 0,
                    io: io.clone(),
                },
                ScanSegment {
                    stable: &p1,
                    layers: DeltaLayers::Pdt(vec![&d1]),
                    rid_base: part0_visible,
                    io,
                },
            ],
            vec![0, 1, 2],
            ScanBounds::default(),
            ScanClock::new(),
        );
        let mut got = Vec::new();
        let mut expect_rid = 0u64;
        while let Some(b) = union.next_batch() {
            assert_eq!(
                b.rid_start, expect_rid,
                "union batches must stay rid-consecutive across the split"
            );
            expect_rid += b.num_rows() as u64;
            got.extend(b.rows());
        }
        assert_eq!(got, want);
        assert_eq!(expect_rid, 40, "both partitions net 20 visible rows");
        // keys strictly ascending across the split point
        let keys: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
    }

    /// `start_rid` must be the global rank of the first row the union
    /// would emit, even when the key range lies wholly inside a later
    /// partition (earlier segments resolve empty ranges and must not pin
    /// the stale first-segment rank).
    #[test]
    fn union_start_rid_tracks_first_emitting_segment() {
        let (p0, p1, d0, d1) = two_partition_fixture();
        let mut scan = TableScan::union(
            fixture_segments(&p0, &p1, &d0, &d1, &IoTracker::new()),
            vec![0, 1, 2],
            ScanBounds {
                // keys 250..290 live in partition 1, past its first key
                // (partition 0's range resolves past its data)
                lo: Some(vec![Value::Int(250)]),
                hi: Some(vec![Value::Int(290)]),
            },
            ScanClock::new(),
        );
        let first = scan.next_batch().expect("range is populated");
        // the stale-tolerant sparse index is over-inclusive (partition 0
        // may emit its last block), but start_rid must equal the first
        // emitted global rank — not partition 0's stale empty-range rank
        assert_eq!(
            scan.start_rid(),
            first.rid_start,
            "start_rid must anchor at the first emitting segment's rank"
        );
    }

    /// Regression for the rid-window clamp when the window straddles a
    /// partition split: the window must be clamped *per partition* — tail
    /// of one slice, head of the next — never applied to each partition
    /// as if it were the whole table (which would re-emit every
    /// partition's rows at the window's local offsets).
    /// The fixture's two segments (both partitions net 20 visible rows:
    /// one delete + one insert each).
    fn fixture_segments<'a>(
        p0: &'a StableTable,
        p1: &'a StableTable,
        d0: &'a Pdt,
        d1: &'a Pdt,
        io: &IoTracker,
    ) -> Vec<ScanSegment<'a>> {
        vec![
            ScanSegment {
                stable: p0,
                layers: DeltaLayers::Pdt(vec![d0]),
                rid_base: 0,
                io: io.clone(),
            },
            ScanSegment {
                stable: p1,
                layers: DeltaLayers::Pdt(vec![d1]),
                rid_base: 20,
                io: io.clone(),
            },
        ]
    }

    #[test]
    fn union_rid_clamp_straddles_partition_split() {
        let (p0, p1, d0, d1) = two_partition_fixture();
        let full = {
            let mut scan = TableScan::union(
                fixture_segments(&p0, &p1, &d0, &d1, &IoTracker::new()),
                vec![0, 1, 2],
                ScanBounds::default(),
                ScanClock::new(),
            );
            run_to_rows(&mut scan)
        };
        // windows: straddling the split, inside one partition, at the
        // edges, empty, and past the end
        for (lo, hi) in [
            (15u64, 25u64),
            (19, 21),
            (0, 40),
            (20, 20),
            (20, 40),
            (0, 20),
            (38, 60),
            (5, 7),
        ] {
            let io = IoTracker::new();
            let mut scan = TableScan::union(
                fixture_segments(&p0, &p1, &d0, &d1, &io),
                vec![0, 1, 2],
                ScanBounds::default(),
                ScanClock::new(),
            );
            scan.clamp_rids(lo, hi);
            let want: Vec<Tuple> = full
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i as u64) >= lo && (*i as u64) < hi)
                .map(|(_, r)| r.clone())
                .collect();
            let mut got = Vec::new();
            let mut expect_rid = lo;
            while let Some(b) = scan.next_batch() {
                assert_eq!(
                    b.rid_start, expect_rid,
                    "window [{lo},{hi}): clamped union batches stay consecutive"
                );
                expect_rid += b.num_rows() as u64;
                got.extend(b.rows());
            }
            assert_eq!(got, want, "window [{lo},{hi})");
            if lo >= 20 {
                // partitions wholly below the window are skipped: a
                // window inside partition 1 must read exactly what a
                // scan of partition 1 alone (locally clamped) reads
                let ref_io = IoTracker::new();
                let mut ref_scan = TableScan::new(
                    &p1,
                    DeltaLayers::Pdt(vec![&d1]),
                    vec![0, 1, 2],
                    ref_io.clone(),
                    ScanClock::new(),
                );
                ref_scan.clamp_rids(lo - 20, hi.saturating_sub(20));
                run_to_rows(&mut ref_scan);
                assert_eq!(
                    io.stats().bytes_read,
                    ref_io.stats().bytes_read,
                    "window [{lo},{hi}) read the skipped partition"
                );
                // ... and counts it neither as read nor as scanned
                assert_eq!(scan.counts().io, ref_scan.counts().io);
                assert_eq!(scan.counts().segments, 1, "window [{lo},{hi})");
            }
        }
    }

    #[test]
    fn rid_start_is_consecutive_across_batches() {
        let t = table(20);
        let p = updated_pdt();
        let io = IoTracker::new();
        let mut scan = TableScan::new(
            &t,
            DeltaLayers::Pdt(vec![&p]),
            vec![0],
            io,
            ScanClock::new(),
        );
        let mut expect = 0u64;
        while let Some(b) = scan.next_batch() {
            assert_eq!(b.rid_start, expect, "batches must be rid-consecutive");
            expect += b.num_rows() as u64;
        }
        // total visible rows
        assert_eq!(expect, (20 + p.delta_total()) as u64);
    }

    // -----------------------------------------------------------------
    // block shapes: the scan against the row-level merges
    // -----------------------------------------------------------------

    fn ins_row(k: i64) -> Tuple {
        vec![Value::Int(k), Value::Int(-k), Value::Str(format!("n{k}"))]
    }

    /// Blocks of 4 over 32 rows: block 0 untouched, 1 modified only (one
    /// patch outside the string dictionary), 2 insert-only, 3 ghost-only,
    /// 4 mixed, 5 wholly ghosted, 6–7 untouched, plus a trailing insert.
    fn shaped_pdt() -> Pdt {
        let mut p = Pdt::new(schema(), vec![0]);
        p.add_modify(5, 1, &Value::Int(-50));
        p.add_modify(6, 2, &Value::Str("r3".into())); // in the dictionary
        p.add_modify(7, 2, &Value::Str("fresh".into())); // not in it
        p.add_insert(9, 9, &ins_row(85));
        p.add_insert(11, 12, &ins_row(105));
        for sid in [13u64, 14] {
            let key = sid as i64 * 10;
            p.add_delete(p.rid_of_stable(sid).0, &[Value::Int(key)]);
        }
        p.add_modify(p.rid_of_stable(16).0, 1, &Value::Int(-160));
        p.add_delete(p.rid_of_stable(17).0, &[Value::Int(170)]);
        let at = p.rid_of_stable(19).0;
        p.add_insert(p.sk_rid_to_sid(&[Value::Int(185)], at), at, &ins_row(185));
        for sid in 20u64..24 {
            let key = sid as i64 * 10;
            p.add_delete(p.rid_of_stable(sid).0, &[Value::Int(key)]);
        }
        let end = (32 + p.delta_total()) as u64;
        p.add_insert(32, end, &ins_row(999));
        p.check_invariants();
        p
    }

    #[test]
    fn pdt_block_shapes_match_row_merge() {
        let t = table(32);
        let p = shaped_pdt();
        let want = merge_rows(&rows(32), &p);
        for proj in [vec![0, 1, 2], vec![2], vec![1, 0]] {
            let mut scan = TableScan::new(
                &t,
                DeltaLayers::Pdt(vec![&p]),
                proj.clone(),
                IoTracker::new(),
                ScanClock::new(),
            );
            let mut got = Vec::new();
            let mut expect_rid = 0u64;
            while let Some(b) = scan.next_batch() {
                assert_eq!(b.rid_start, expect_rid, "proj {proj:?}");
                expect_rid += b.num_rows() as u64;
                got.extend(b.rows());
            }
            let want: Vec<Tuple> = want
                .iter()
                .map(|r| proj.iter().map(|&c| r[c].clone()).collect())
                .collect();
            assert_eq!(got, want, "proj {proj:?}");
        }
    }

    /// Three stacked layers whose shapes differ block by block: where the
    /// read layer patches the write layer has nothing and the trans layer
    /// moves rows, and so on round the stack.
    #[test]
    fn three_layer_stack_with_different_shapes_matches_row_merges() {
        let t = table(32);
        let mut read = Pdt::new(schema(), vec![0]);
        read.add_modify(1, 1, &Value::Int(-1)); // block 0: patch
        read.add_insert(9, 9, &ins_row(85)); // block 2: insert
        let after_read = merge_rows(&rows(32), &read);
        let mut write = Pdt::new(schema(), vec![0]);
        write.add_delete(4, &[Value::Int(40)]); // read's block 1: ghost
        write.add_modify(9, 2, &Value::Str("w".into())); // read's insert
        let after_write = merge_rows(&after_read, &write);
        let mut trans = Pdt::new(schema(), vec![0]);
        trans.add_insert(2, 2, &ins_row(15)); // block 0: insert
        trans.add_modify(6, 1, &Value::Int(-6)); // block 1: patch
        let at = trans.rid_of_stable(20).0;
        trans.add_delete(at, &[after_write[20][0].clone()]);
        let end = after_write.len() as u64;
        let at = (end as i64 + trans.delta_total()) as u64;
        trans.add_insert(end, at, &ins_row(9999));
        let want = merge_rows(&after_write, &trans);
        let mut scan = TableScan::new(
            &t,
            DeltaLayers::Pdt(vec![&read, &write, &trans]),
            vec![0, 1, 2],
            IoTracker::new(),
            ScanClock::new(),
        );
        assert_eq!(run_to_rows(&mut scan), want);
    }

    /// Narrow a freshly built single-layer PDT scan to the SID range
    /// `[start, end)`. The sparse index only ever resolves block-aligned
    /// ranges, so this is the one way to a scan whose first and last
    /// blocks are clipped.
    fn clip_to_sids<'a>(scan: &mut TableScan<'a>, p: &'a Pdt, start: u64, end: u64) {
        scan.range = ScanRange { start, end };
        scan.next_block = scan.table.block_of(start);
        scan.end_block = scan.table.block_of(end - 1) + 1;
        let merger = PdtMerger::new(p, start);
        scan.start_rid = merger.next_rid();
        scan.state = MergeState::Pdt(vec![merger]);
    }

    /// A scan whose first and last blocks are clipped to the range: the
    /// vector an untouched block moves through must be the clipped rows,
    /// not the decoded block.
    #[test]
    fn clipped_first_and_last_blocks_pass_through_as_slices() {
        let t = table(32);
        let all = rows(32);
        // untouched edge blocks, then patched, then row-moving ones
        let untouched = Pdt::new(schema(), vec![0]);
        let mut patched = Pdt::new(schema(), vec![0]);
        patched.add_modify(6, 2, &Value::Str("first".into()));
        patched.add_modify(25, 1, &Value::Int(-25));
        let mut moved = Pdt::new(schema(), vec![0]);
        moved.add_delete(7, &[Value::Int(70)]);
        moved.add_insert(26, 25, &ins_row(255));
        // (layer, rows the clipped head block emits: stable 6 and 7)
        for (p, head_rows) in [(&untouched, 2), (&patched, 2), (&moved, 1)] {
            let merged = merge_rows(&all, p);
            // stable rows 6..27: blocks 1 and 6 are clipped (rows 6..8 and
            // 24..27 survive); the visible image keeps those rows' ranks
            let first = p.rid_of_stable(6).0 as usize;
            let last = p.rid_of_stable(26).0 as usize;
            let want = &merged[first..=last];
            let mut scan = TableScan::new(
                &t,
                DeltaLayers::Pdt(vec![p]),
                vec![0, 1, 2],
                IoTracker::new(),
                ScanClock::new(),
            );
            clip_to_sids(&mut scan, p, 6, 27);
            assert_eq!(scan.start_rid(), first as u64);
            let first_batch = scan.next_batch().expect("clipped head block");
            assert_eq!(first_batch.rid_start, first as u64);
            assert_eq!(first_batch.num_rows(), head_rows, "block 1 clipped to 6..8");
            let mut got = first_batch.rows();
            got.extend(run_to_rows(&mut scan));
            assert_eq!(got, want);
        }
    }

    /// The by-key arm finds the sort key among the decoded columns once per
    /// scan; the image must not notice which way it sits there (projected,
    /// appended, or — a two-column key with a payload column between —
    /// gathered), in blocks the delta addresses and blocks it does not.
    #[test]
    fn by_key_scan_matches_row_merge_wherever_the_sort_key_sits() {
        let base = rows(32);
        let two_col_key = StableTable::bulk_load(
            TableMeta::new("t", schema(), vec![0, 2]),
            TableOptions {
                block_rows: 4,
                compressed: true,
            },
            &base,
        )
        .unwrap();
        for (t, sk) in [(table(32), vec![0usize]), (two_col_key, vec![0, 2])] {
            let key = |i: usize| -> Vec<Value> { sk.iter().map(|&c| base[i][c].clone()).collect() };
            let mut v = Vdt::new(schema(), sk.clone());
            let mut b = RowBuffer::new(schema(), sk.clone());
            // blocks 2 and 5 only; the last row of block 2 is replaced, so
            // its insert lands at the head of untouched block 3
            v.delete(&key(9));
            b.delete_key(&key(9));
            v.modify(&base[11], 1, Value::Int(-11));
            b.modify(&base[11], 1, Value::Int(-11));
            let fresh = vec![Value::Int(215), Value::Int(0), Value::Str("r21".into())];
            v.insert(fresh.clone());
            b.insert(fresh);
            for proj in [vec![0, 1, 2], vec![1], vec![2, 1]] {
                let project = |rows: Vec<Tuple>| -> Vec<Tuple> {
                    rows.iter()
                        .map(|r| proj.iter().map(|&c| r[c].clone()).collect())
                        .collect()
                };
                let mut scan = TableScan::new(
                    &t,
                    DeltaLayers::Vdt(&v),
                    proj.clone(),
                    IoTracker::new(),
                    ScanClock::new(),
                );
                assert_eq!(run_to_rows(&mut scan), project(v.merge_rows(&base)));
                let mut scan = TableScan::new(
                    &t,
                    DeltaLayers::Rows(&b),
                    proj.clone(),
                    IoTracker::new(),
                    ScanClock::new(),
                );
                assert_eq!(run_to_rows(&mut scan), project(b.merge_rows(&base)));
            }
        }
    }

    // -----------------------------------------------------------------
    // the scan's own counts
    // -----------------------------------------------------------------

    #[test]
    fn counts_render_the_explain_analyze_line() {
        let mut c = ScanCounts {
            io: IoStats {
                blocks_read: 3,
                bytes_read: 4096,
            },
            blocks_decoded: 3,
            blocks_skipped: 5,
            batches: 2,
            rows: 2048,
            wall_ns: 1_500_000,
            segments: 1,
            ..ScanCounts::default()
        };
        c.paths[MergePath::PdtKernel as usize] = 1;
        assert_eq!(c.path_label(), "pdt-kernel");
        assert_eq!(
            c.to_string(),
            "[rows=2048 batches=2 time=1.500ms path=pdt-kernel \
             blocks=3 decoded/5 zone-skipped bytes=4096 segments=1]"
        );
    }

    #[test]
    fn path_label_joins_every_merge_path_taken() {
        let mut c = ScanCounts::default();
        assert_eq!(c.path_label(), "-", "no segment scanned yet");
        c.paths[MergePath::VdtKernel as usize] = 2;
        c.paths[MergePath::Clean as usize] = 1;
        assert_eq!(c.path_label(), "clean,vdt-kernel");
        c.paths[MergePath::PdtKernel as usize] = 1;
        assert_eq!(c.path_label(), "clean,pdt-kernel,vdt-kernel");
    }

    /// Two scans interleaved over one tracker each count exactly what they
    /// count alone — a ranged by-key scan's key probes included — and
    /// together everything the tracker saw.
    #[test]
    fn interleaved_scans_on_one_tracker_count_only_their_own_reads() {
        let t = table(40);
        let p = updated_pdt();
        let mut v = Vdt::new(schema(), vec![0]);
        v.delete(&[Value::Int(200)]);
        v.insert(vec![Value::Int(195), Value::Int(0), Value::Str("g".into())]);
        let bounds = || ScanBounds {
            lo: Some(vec![Value::Int(100)]),
            hi: Some(vec![Value::Int(300)]),
        };
        let pdt_scan = |io: &IoTracker| {
            TableScan::new(
                &t,
                DeltaLayers::Pdt(vec![&p]),
                vec![1, 2],
                io.clone(),
                ScanClock::new(),
            )
        };
        let vdt_scan = |io: &IoTracker| {
            TableScan::ranged(
                &t,
                DeltaLayers::Vdt(&v),
                vec![1],
                bounds(),
                io.clone(),
                ScanClock::new(),
            )
        };
        let solo = |mut scan: TableScan<'_>, io: &IoTracker| {
            while scan.next_batch().is_some() {}
            assert_eq!(
                scan.counts().io,
                io.stats(),
                "a lone scan counts its tracker's reads"
            );
            *scan.counts()
        };
        let (io_a, io_b) = (IoTracker::new(), IoTracker::new());
        let (a_alone, b_alone) = (solo(pdt_scan(&io_a), &io_a), solo(vdt_scan(&io_b), &io_b));
        assert!(
            b_alone.io.blocks_read > b_alone.blocks_decoded,
            "key probes and key columns"
        );

        let shared = IoTracker::new();
        let (mut a, mut b) = (pdt_scan(&shared), vdt_scan(&shared));
        let (mut a_live, mut b_live) = (true, true);
        while a_live || b_live {
            a_live = a_live && a.next_batch().is_some();
            b_live = b_live && b.next_batch().is_some();
        }
        assert_eq!(a.counts().io, a_alone.io);
        assert_eq!(b.counts().io, b_alone.io);
        assert_eq!(
            (a.counts().rows, b.counts().rows),
            (a_alone.rows, b_alone.rows)
        );
        let sum = a.counts().io.bytes_read + b.counts().io.bytes_read;
        assert_eq!(sum, shared.stats().bytes_read);
        let blocks = a.counts().io.blocks_read + b.counts().io.blocks_read;
        assert_eq!(blocks, shared.stats().blocks_read);
    }
}
