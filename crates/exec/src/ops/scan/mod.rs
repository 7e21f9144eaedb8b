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
//! Two files, split by concern. `merge.rs` is the paper's MergeScan over
//! one image: the block loop, the PDT stack, the by-key merger and the
//! drains after the last block. This file is the [`TableScan`] a query
//! runs: the union of one MergeScan per partition, in split order, with
//! the rid window and the scan's [`ScanCounts`].
//!
//! A checkpoint is the MergeScan too (§2, "Checkpointing"): [`fold_blocks`]
//! streams its block-range form into a [`TableBuilder::splice`], for every
//! update policy and every maintenance step — there is no second merge
//! loop.
//!
//! Every scan counts what it reads and emits in its own [`ScanCounts`],
//! at the place it happens: `explain_analyze` and the DML resolvers read
//! them off the scan, never off a tracker other scans share.
//!
//! [`TableBuilder::splice`]: columnar::TableBuilder::splice

mod merge;

pub use merge::fold_blocks;

use crate::batch::Batch;
use crate::expr::Expr;
use crate::ops::Operator;
use crate::stats::ScanClock;
use columnar::{ColumnarError, IoStats, IoTracker, StableTable, Value, ValueType};
use merge::MergeScan;
use pdt::Pdt;
use rowstore::RowBuffer;
use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;
use vdt::Vdt;

/// Differential layers to merge into the scan.
#[derive(Clone)]
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
/// the global RID of the partition's first visible row. A [`TableScan`]
/// walks a vector of these in split order, re-basing each partition's
/// locally consecutive RIDs by `rid_base` so the scan emits globally
/// consecutive RIDs. An unpartitioned table is one segment at base 0.
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
    /// Blocks a filtered scan skipped after its predicate columns: no row
    /// of the block survived the predicate, so no other column was read.
    pub blocks_pruned: u64,
    /// Column values decoded: a whole block's for every block decoded in
    /// full, only the selected rows' for a filtered scan's positional reads
    /// of [`Encoding::Plain`] and [`Encoding::BitPacked`] blocks.
    ///
    /// [`Encoding::Plain`]: columnar::Encoding::Plain
    /// [`Encoding::BitPacked`]: columnar::Encoding::BitPacked
    pub values_decoded: u64,
    /// Blocks a filtered scan merged in every projected column before it
    /// selected rows: every block of a by-key merge, and a PDT block more
    /// than one layer touches.
    pub blocks_fallback: u64,
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
/// blocks=… decoded/… zone-skipped bytes=… segments=… pruned=… values=…
/// fallback=…]`.
impl fmt::Display for ScanCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[rows={} batches={} time={:.3}ms path={} blocks={} decoded/{} zone-skipped bytes={} \
             segments={} pruned={} values={} fallback={}]",
            self.rows,
            self.batches,
            self.wall_ns as f64 / 1e6,
            self.path_label(),
            self.blocks_decoded,
            self.blocks_skipped,
            self.io.bytes_read,
            self.segments,
            self.blocks_pruned,
            self.values_decoded,
            self.blocks_fallback
        )
    }
}

/// The scan operator: a union over the ordered partitions of a table.
///
/// ## Pinning
///
/// A scan borrows its stable tables and delta layers for its whole
/// lifetime — it never re-reads them from the database. The engine's read
/// views hand out these borrows from `Arc`-held snapshots (stable image +
/// committed delta capture), so a scan is pinned to one consistent cut:
/// background maintenance may swap a fresh stable image or retire delta
/// layers mid-scan, and the scan keeps reading the pinned versions,
/// emitting exactly the rows visible when its view opened.
///
/// ## Partitions
///
/// Each partition runs its own MergeScan against its own stable slice and
/// delta layers, opened when the scan reaches it; the union re-bases every
/// emitted batch by the partition's `rid_base` so output RIDs stay
/// globally consecutive across split points. An unpartitioned table is
/// the union of one.
pub struct TableScan<'a> {
    proj: Vec<usize>,
    /// Value types of `proj`, in projection order.
    types: Vec<ValueType>,
    /// Every partition resolves these against its own sparse index.
    bounds: ScanBounds,
    clock: ScanClock,
    /// The partition being scanned; `None` once the scan is over.
    merge: Option<MergeScan<'a>>,
    /// Global RID of the current partition's first visible row.
    rid_base: u64,
    /// The partitions after it, in split order.
    pending: VecDeque<ScanSegment<'a>>,
    /// The current partition's path and zone-skips are in `counts`: a
    /// segment counts once the scan enters it.
    entered: bool,
    /// A partition's key probe failed as it opened: the next
    /// [`TableScan::try_next_batch`] returns it.
    failed: Option<ColumnarError>,
    /// Visible-rid output window `[rid_lo, rid_hi)` in global RIDs — see
    /// [`TableScan::clamp_rids`].
    rid_lo: u64,
    rid_hi: u64,
    /// See [`TableScan::start_rid`].
    start_rid: u64,
    /// Some batch has been emitted (freezes `start_rid` across segment
    /// advances).
    emitted: bool,
    /// What the scan read and emitted, over every segment so far.
    counts: ScanCounts,
    /// The scan's predicate ([`TableScan::filter`]).
    filter: Option<Expr>,
}

impl<'a> TableScan<'a> {
    /// Scan `segments` (ordered by `rid_base`) in split order with one
    /// projection and one set of sort-key bounds (each partition resolves
    /// the bounds against its own sparse index). Emitted RIDs are re-based
    /// by each segment's `rid_base`, so batch `rid_start`s continue across
    /// split points exactly as if the table were one image. The first
    /// segment opens here, so [`TableScan::start_rid`] is valid at once;
    /// a scan of no segment emits nothing.
    pub fn new(
        segments: Vec<ScanSegment<'a>>,
        proj: Vec<usize>,
        bounds: ScanBounds,
        clock: ScanClock,
    ) -> Self {
        let types = match segments.first() {
            Some(seg) => proj.iter().map(|&c| seg.stable.schema().vtype(c)).collect(),
            None => Vec::new(),
        };
        let mut pending: VecDeque<ScanSegment<'a>> = segments.into();
        let first = pending.pop_front();
        let mut scan = TableScan {
            proj,
            types,
            bounds,
            clock,
            merge: None,
            rid_base: 0,
            pending,
            entered: false,
            failed: None,
            rid_lo: 0,
            rid_hi: u64::MAX,
            start_rid: 0,
            emitted: false,
            counts: ScanCounts::default(),
            filter: None,
        };
        if let Some(seg) = first {
            scan.open(seg);
        }
        scan
    }

    /// What the scan has read and emitted so far.
    pub fn counts(&self) -> &ScanCounts {
        &self.counts
    }

    /// Emit only the rows `pred` accepts (its columns index the
    /// projection): the `Filter` over the scan, run inside it. Each
    /// partition's MergeScan decodes a block's predicate columns, selects,
    /// skips a block no row of which survives, and reads the other columns
    /// at the surviving rows only — by position through a block exactly one
    /// PDT layer touches, after merging every column where the delta is
    /// by-key or more than one layer touches the block (see
    /// [`ScanCounts`]). Filtered batches carry no RIDs (`rid_start` is 0,
    /// as a `Filter`'s output) and [`TableScan::start_rid`] means nothing
    /// for them. Under a rid window ([`TableScan::clamp_rids`], called
    /// first) the window applies to the unfiltered rows and the predicate
    /// to what it keeps.
    pub fn filter(&mut self, pred: Expr) {
        if !self.windowed() {
            if let Some(merge) = &mut self.merge {
                merge.set_filter(&pred);
            }
        }
        self.filter = Some(pred);
    }

    /// A rid window clips the output: the predicate runs after it.
    fn windowed(&self) -> bool {
        self.rid_lo > 0 || self.rid_hi < u64::MAX
    }

    /// Make `seg` the current partition (`merge` is `None` before). Its key
    /// probes join the scan's counts; until a row is emitted, its rank is
    /// the scan's `start_rid` (earlier segments whose ranges resolved
    /// empty do not pin theirs).
    fn open(&mut self, seg: ScanSegment<'a>) {
        let range = (seg.stable).sid_range(self.bounds.lo.as_deref(), self.bounds.hi.as_deref());
        self.entered = false;
        self.rid_base = seg.rid_base;
        match MergeScan::open(
            seg.stable,
            seg.layers,
            self.proj.clone(),
            range,
            Some(&self.bounds),
            seg.io,
            &mut self.counts,
        ) {
            Ok(mut merge) => {
                if !self.emitted {
                    self.start_rid = seg.rid_base + merge.start_rid();
                }
                if let (Some(pred), false) = (&self.filter, self.windowed()) {
                    merge.set_filter(pred);
                }
                self.merge = Some(merge);
            }
            Err(e) => self.failed = Some(e),
        }
    }

    /// Open the next pending partition (`merge` is `None` when none
    /// remains). Partitions that end at or before the rid window's lower
    /// edge are skipped without touching their blocks — the per-partition
    /// clamp that keeps rid-window scans from paying for partitions wholly
    /// outside the window.
    fn advance(&mut self) {
        // the current partition goes, and with it any error it opened with
        self.merge = None;
        self.failed = None;
        while let Some(seg) = self.pending.pop_front() {
            // this segment spans [seg.rid_base, next.rid_base): skip it
            // when the window starts at or past its end
            if self
                .pending
                .front()
                .is_none_or(|next| next.rid_base > self.rid_lo)
            {
                self.open(seg);
                return;
            }
        }
    }

    /// Restrict the scan's *output* to the visible positions `[lo, hi)`
    /// (global positions). Batches before the window are skipped, the
    /// batch straddling an edge is sliced, and the scan finishes as soon
    /// as it passes `hi`. Block I/O within the window is unchanged:
    /// positions only map to blocks directly when no delta is merged, so
    /// the clamp trims rows, not reads — every block from the segment's
    /// first up to the window's end is decoded. That is why positional DML
    /// does not find its rows this way on a positional table
    /// ([`gather_rows`](crate::gather_rows) walks the PDT instead); the
    /// clamp remains the by-key arm of that gather, and the window form of
    /// a read scan. The window is clamped **per partition**: each
    /// segment's batches are re-based to global RIDs before clipping, a
    /// window straddling a split point takes the tail of one partition
    /// and the head of the next, and partitions wholly below the window
    /// are skipped without any block I/O.
    pub fn clamp_rids(&mut self, lo: u64, hi: u64) {
        self.rid_lo = lo;
        self.rid_hi = hi;
        // the current segment spans [rid_base, next.rid_base): when the
        // window starts at or past its end, replace it unscanned (and
        // uncounted) — `advance` skips any further wholly-below segments
        // too, and never the last one
        if self.pending.front().is_some_and(|next| next.rid_base <= lo) {
            self.advance();
        }
    }

    /// Slice `b` (already re-based to global RIDs) to the rid window;
    /// `None` means "outside, keep going" — unless the scan was ended by
    /// passing the window's end.
    fn clip_to_window(&mut self, b: Batch) -> Option<Batch> {
        let start = b.rid_start;
        let end = start + b.num_rows() as u64;
        if start >= self.rid_hi {
            // every later batch — and every later partition — is past the
            // window: the whole union is done, not just this segment
            self.merge = None;
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
    /// range's start in the visible (merged) image, global for a
    /// partitioned table. Valid even when the whole range is ghosted and
    /// the scan emits nothing — the property insert-positioning DML
    /// depends on.
    pub fn start_rid(&self) -> u64 {
        self.start_rid
    }

    /// [`Operator::next_batch`] with the errors of the scan's block reads
    /// and key probes returned instead of raised: a block whose payload
    /// fails to decode ends the scan with its [`ColumnarError`].
    pub fn try_next_batch(&mut self) -> Result<Option<Batch>, ColumnarError> {
        // a batch may be legitimately empty mid-stream (fully deleted
        // block): loop — not recurse — to the next one, so a long run of
        // ghosted blocks (common right before a checkpoint retires heavy
        // deletes) cannot grow the stack with the table
        loop {
            if let Some(e) = self.failed.take() {
                return Err(e);
            }
            let Some(merge) = &mut self.merge else {
                return Ok(None);
            };
            if !self.entered {
                self.entered = true;
                self.counts.segments += 1;
                self.counts.paths[merge.path() as usize] += 1;
                self.counts.blocks_skipped += merge.zone_skipped();
            }
            let t0 = Instant::now();
            let out = merge.next_batch(&mut self.counts);
            self.counts.wall_ns += self.clock.charge(t0);
            let mut b = match out {
                Ok(Some(b)) => b,
                // current segment exhausted: next partition, if any
                Ok(None) => {
                    self.advance();
                    continue;
                }
                Err(e) => {
                    self.merge = None;
                    return Err(e);
                }
            };
            if b.is_empty() {
                continue;
            }
            // partition-local → global RIDs, then clip globally
            b.rid_start += self.rid_base;
            self.emitted = true;
            // dictionary-coded string columns leave the scan as codes:
            // merge, clipping and stacking ran on u32 codes, and a string
            // is decoded only where an operator reads it
            let Some(mut clipped) = self.clip_to_window(b) else {
                continue;
            };
            if let Some(pred) = &self.filter {
                if self.windowed() {
                    let sel = pred.select(&clipped, (0..clipped.num_rows()).collect());
                    clipped = clipped.gather(&sel);
                    if clipped.is_empty() {
                        continue;
                    }
                }
                // a filtered batch carries no RIDs
                clipped.rid_start = 0;
            }
            self.counts.batches += 1;
            self.counts.rows += clipped.num_rows() as u64;
            return Ok(Some(clipped));
        }
    }
}

impl<'a> Operator for TableScan<'a> {
    fn next_batch(&mut self) -> Option<Batch> {
        self.try_next_batch().expect(
            "a stable block decodes: image payloads are checksummed at load, so a failure \
             is a codec bug (callers that must survive one use try_next_batch)",
        )
    }

    fn out_types(&self) -> Vec<ValueType> {
        self.types.clone()
    }
}

impl fmt::Debug for TableScan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TableScan")
            .field("proj", &self.proj)
            .field("merge", &self.merge)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::run_to_rows;
    use columnar::checksum::checksum;
    use columnar::image::{decode_image, encode_image};
    use columnar::{Encoding, ScanRange, Schema, TableMeta, Tuple};
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
        StableTable::load(TableMeta::new("t", schema(), vec![0]), 4, rows(n)).unwrap()
    }

    /// The scan of one unpartitioned image: a single segment at base 0.
    fn one_segment<'a>(
        stable: &'a StableTable,
        layers: DeltaLayers<'a>,
        proj: Vec<usize>,
        bounds: ScanBounds,
        io: IoTracker,
        clock: ScanClock,
    ) -> TableScan<'a> {
        let seg = ScanSegment {
            stable,
            layers,
            rid_base: 0,
            io,
        };
        TableScan::new(vec![seg], proj, bounds, clock)
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
        let mut scan = one_segment(
            &t,
            DeltaLayers::None,
            vec![0, 1, 2],
            ScanBounds::default(),
            io,
            clock.clone(),
        );
        assert_eq!(run_to_rows(&mut scan), rows(20));
        assert!(clock.nanos() > 0);
    }

    #[test]
    fn pdt_scan_matches_row_merge() {
        let t = table(20);
        let p = updated_pdt();
        let io = IoTracker::new();
        let mut scan = one_segment(
            &t,
            DeltaLayers::Pdt(vec![&p]),
            vec![0, 1, 2],
            ScanBounds::default(),
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
        let mut scan = one_segment(
            &t,
            DeltaLayers::Pdt(vec![&lower, &upper]),
            vec![0, 1, 2],
            ScanBounds::default(),
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
        let mut scan = one_segment(
            &t,
            DeltaLayers::Vdt(&v),
            vec![0, 1, 2],
            ScanBounds::default(),
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
        let mut scan = one_segment(
            &t,
            DeltaLayers::Rows(&b),
            vec![0, 1, 2],
            ScanBounds::default(),
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
        let mut scan = one_segment(
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
        let mut scan = one_segment(
            &t,
            DeltaLayers::Pdt(vec![&p]),
            vec![1],
            ScanBounds::default(),
            io_pdt.clone(),
            ScanClock::new(),
        );
        while scan.next_batch().is_some() {}
        let io_rows = IoTracker::new();
        let mut scan = one_segment(
            &t,
            DeltaLayers::Rows(&b),
            vec![1],
            ScanBounds::default(),
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
        let mut scan = one_segment(
            &t,
            DeltaLayers::Pdt(vec![&p]),
            vec![1],
            ScanBounds::default(),
            io_pdt.clone(),
            ScanClock::new(),
        );
        while scan.next_batch().is_some() {}
        let io_vdt = IoTracker::new();
        let mut scan = one_segment(
            &t,
            DeltaLayers::Vdt(&v),
            vec![1],
            ScanBounds::default(),
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
        let mut scan = one_segment(
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
        let mut merged = one_segment(
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
        let mut clean = one_segment(
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
        let mut scan = one_segment(
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
        let mut scan = one_segment(
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
        let mut scan = one_segment(
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
            let mut full = one_segment(
                &t,
                DeltaLayers::Pdt(vec![&p]),
                vec![0, 1, 2],
                ScanBounds::default(),
                io.clone(),
                ScanClock::new(),
            );
            let all = run_to_rows(&mut full);
            let mut clamped = one_segment(
                &t,
                DeltaLayers::Pdt(vec![&p]),
                vec![0, 1, 2],
                ScanBounds::default(),
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
        StableTable::load(TableMeta::new("t", schema(), vec![0]), 4, &rows).unwrap()
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
        let mut s0 = one_segment(
            &p0,
            DeltaLayers::Pdt(vec![&d0]),
            vec![0, 1, 2],
            ScanBounds::default(),
            io.clone(),
            ScanClock::new(),
        );
        let mut want = run_to_rows(&mut s0);
        let part0_visible = want.len() as u64;
        let mut s1 = one_segment(
            &p1,
            DeltaLayers::Pdt(vec![&d1]),
            vec![0, 1, 2],
            ScanBounds::default(),
            io.clone(),
            ScanClock::new(),
        );
        want.extend(run_to_rows(&mut s1));

        let mut union = TableScan::new(
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
        let mut scan = TableScan::new(
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
            let mut scan = TableScan::new(
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
            let mut scan = TableScan::new(
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
                let mut ref_scan = one_segment(
                    &p1,
                    DeltaLayers::Pdt(vec![&d1]),
                    vec![0, 1, 2],
                    ScanBounds::default(),
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
        let mut scan = one_segment(
            &t,
            DeltaLayers::Pdt(vec![&p]),
            vec![0],
            ScanBounds::default(),
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
            let mut scan = one_segment(
                &t,
                DeltaLayers::Pdt(vec![&p]),
                proj.clone(),
                ScanBounds::default(),
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
        let mut scan = one_segment(
            &t,
            DeltaLayers::Pdt(vec![&read, &write, &trans]),
            vec![0, 1, 2],
            ScanBounds::default(),
            IoTracker::new(),
            ScanClock::new(),
        );
        assert_eq!(run_to_rows(&mut scan), want);
    }

    /// Narrow a freshly built scan of `t` to its single-layer PDT scan
    /// over the SID range `[start, end)`. The sparse index only ever
    /// resolves block-aligned ranges, so this is the one way to a scan
    /// whose first and last blocks are clipped.
    fn clip_to_sids<'a>(
        scan: &mut TableScan<'a>,
        t: &'a StableTable,
        p: &'a Pdt,
        start: u64,
        end: u64,
    ) {
        let merge = MergeScan::open(
            t,
            DeltaLayers::Pdt(vec![p]),
            scan.proj.clone(),
            ScanRange { start, end },
            Some(&scan.bounds),
            IoTracker::new(),
            &mut scan.counts,
        )
        .unwrap();
        scan.start_rid = merge.start_rid();
        scan.merge = Some(merge);
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
            let mut scan = one_segment(
                &t,
                DeltaLayers::Pdt(vec![p]),
                vec![0, 1, 2],
                ScanBounds::default(),
                IoTracker::new(),
                ScanClock::new(),
            );
            clip_to_sids(&mut scan, &t, p, 6, 27);
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
        let two_col_key =
            StableTable::load(TableMeta::new("t", schema(), vec![0, 2]), 4, &base).unwrap();
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
                let mut scan = one_segment(
                    &t,
                    DeltaLayers::Vdt(&v),
                    proj.clone(),
                    ScanBounds::default(),
                    IoTracker::new(),
                    ScanClock::new(),
                );
                assert_eq!(run_to_rows(&mut scan), project(v.merge_rows(&base)));
                let mut scan = one_segment(
                    &t,
                    DeltaLayers::Rows(&b),
                    proj.clone(),
                    ScanBounds::default(),
                    IoTracker::new(),
                    ScanClock::new(),
                );
                assert_eq!(run_to_rows(&mut scan), project(b.merge_rows(&base)));
            }
        }
    }

    // -----------------------------------------------------------------
    // the block-range fold
    // -----------------------------------------------------------------

    /// One update of the fold fixture, addressed by the row's `k` value.
    enum Upd {
        Ins(Tuple),
        Del(i64),
        Mod(i64, usize, Value),
    }

    /// Five blocks of 4 rows (keys `i * 10`) and, at every block edge `e`
    /// (block `e`'s head; `e = 5` is the tail), an insert sorting between
    /// blocks `e − 1` and `e` (key `40e − 5`), the delete of block
    /// `e − 1`'s last row and a modify of block `e`'s first: its int
    /// column and, unless it is part of the sort key, its string to
    /// another one of the dictionary.
    fn edge_updates(sk: &[usize]) -> Vec<Upd> {
        let mut u = Vec::new();
        for e in 0..=5i64 {
            let k = 40 * e - 5;
            u.push(Upd::Ins(vec![
                Value::Int(k),
                Value::Int(-k),
                Value::Str("r3".into()),
            ]));
            if e > 0 {
                u.push(Upd::Del(40 * e - 10));
            }
            if e < 5 {
                u.push(Upd::Mod(40 * e, 1, Value::Int(-1)));
                if !sk.contains(&2) {
                    u.push(Upd::Mod(40 * e, 2, Value::Str("r7".into())));
                }
            }
        }
        u
    }

    fn load(sk: &[usize], rows: &[Tuple]) -> StableTable {
        let meta = TableMeta::new("t", schema(), sk.to_vec());
        StableTable::load(meta, 4, rows).unwrap()
    }

    /// A delta of each policy, by `Upd` key.
    enum Delta {
        Pdt(Pdt),
        Vdt(Vdt),
        Rows(RowBuffer),
    }

    impl Delta {
        /// The updates of `ups` whose key `keep` accepts, applied under
        /// `policy` (0: PDT, 1: VDT, 2: row buffer) over the stable `base`.
        fn of(
            policy: usize,
            sk: &[usize],
            base: &[Tuple],
            ups: &[Upd],
            keep: impl Fn(i64) -> bool,
        ) -> Delta {
            let stable_row = |k: i64| base.iter().find(|r| r[0] == Value::Int(k)).unwrap();
            let key = |t: &Tuple| -> Vec<Value> { sk.iter().map(|&c| t[c].clone()).collect() };
            let k_of = |u: &Upd| match u {
                Upd::Ins(t) => t[0].as_int(),
                Upd::Del(k) | Upd::Mod(k, ..) => *k,
            };
            let ups = ups.iter().filter(|u| keep(k_of(u)));
            match policy {
                0 => {
                    // fanout 4: a tree of several levels to seek through
                    let mut p = Pdt::with_fanout(schema(), sk.to_vec(), 4);
                    for u in ups {
                        // positions from the visible image so far
                        let visible = merge_rows(base, &p);
                        let rid = visible.partition_point(|r| r[0].as_int() < k_of(u)) as u64;
                        match u {
                            Upd::Ins(t) => p.add_insert(p.sk_rid_to_sid(&key(t), rid), rid, t),
                            Upd::Del(k) => {
                                p.add_delete(rid, &key(stable_row(*k)));
                            }
                            Upd::Mod(_, c, v) => p.add_modify(rid, *c, v),
                        }
                    }
                    Delta::Pdt(p)
                }
                1 => {
                    let mut v = Vdt::new(schema(), sk.to_vec());
                    for u in ups {
                        match u {
                            Upd::Ins(t) => v.insert(t.clone()),
                            Upd::Del(k) => {
                                v.delete(&key(stable_row(*k)));
                            }
                            Upd::Mod(k, c, val) => v.modify(stable_row(*k), *c, val.clone()),
                        }
                    }
                    Delta::Vdt(v)
                }
                _ => {
                    let mut b = RowBuffer::new(schema(), sk.to_vec());
                    for u in ups {
                        match u {
                            Upd::Ins(t) => b.insert(t.clone()),
                            Upd::Del(k) => b.delete_key(&key(stable_row(*k))),
                            Upd::Mod(k, c, val) => b.modify(stable_row(*k), *c, val.clone()),
                        }
                    }
                    Delta::Rows(b)
                }
            }
        }

        fn layers(&self) -> DeltaLayers<'_> {
            match self {
                Delta::Pdt(p) => DeltaLayers::Pdt(vec![p]),
                Delta::Vdt(v) => DeltaLayers::Vdt(v),
                Delta::Rows(b) => DeltaLayers::Rows(b),
            }
        }

        /// The row-level oracle merge over the whole of `base`.
        fn merge_rows(&self, base: &[Tuple]) -> Vec<Tuple> {
            match self {
                Delta::Pdt(p) => merge_rows(base, p),
                Delta::Vdt(v) => v.merge_rows(base),
                Delta::Rows(b) => b.merge_rows(base),
            }
        }
    }

    /// Every block range of every policy folds to the kept prefix, the
    /// window of the row-level oracle and the kept suffix. A PDT folds as
    /// pinned (its inserts at `s1` stay out unless the range is the tail);
    /// a by-key structure folds only its key window, and the window's
    /// insert that sorts between blocks `b0 − 1` and `b0` is folded.
    #[test]
    fn fold_blocks_matches_the_row_oracle_on_every_range() {
        let io = IoTracker::new();
        let base = rows(20);
        for sk in [vec![0], vec![0, 2]] {
            let t = load(&sk, &base);
            let nb = t.num_blocks();
            assert_eq!(nb, 5);
            let ups = edge_updates(&sk);
            let ranges = (0..nb).flat_map(|b0| (b0 + 1..=nb).map(move |b1| (b0, b1)));
            for (b0, b1) in ranges.chain([(nb, nb)]) {
                // the key window of [b0, b1): above block b0 − 1's last
                // key, up to block b1 − 1's (unbounded at the image's ends)
                let (s0, s1) = (t.block_range(b0).0 as usize, t.block_range(b1).0 as usize);
                let lo = (b0 > 0).then(|| base[s0 - 1][0].as_int());
                let hi = (b1 < nb).then(|| base[s1 - 1][0].as_int());
                let in_window = |k: i64| lo.is_none_or(|lo| k > lo) && hi.is_none_or(|hi| k <= hi);
                for policy in 0..3 {
                    let full = Delta::of(policy, &sk, &base, &ups, |_| true);
                    let mut want = base[..s0].to_vec();
                    let oracle = full.merge_rows(&base);
                    want.extend(oracle.into_iter().filter(|r| in_window(r[0].as_int())));
                    want.extend_from_slice(&base[s1..]);
                    let window = Delta::of(policy, &sk, &base, &ups, in_window);
                    let folded = match (&full, &window) {
                        (Delta::Pdt(_), _) => fold_blocks(&t, full.layers(), b0, b1, &io),
                        _ => fold_blocks(&t, window.layers(), b0, b1, &io),
                    }
                    .unwrap();
                    let what = format!("policy {policy}, sk {sk:?}, blocks [{b0}, {b1})");
                    assert_eq!(folded.scan_all(&io).unwrap(), want, "{what}");
                    // an insert at s1 < row_count stays in the next range;
                    // one between b0 − 1 and b0 folds here
                    let has = |k: i64| want.iter().any(|r| r[0] == Value::Int(k));
                    if b1 < nb {
                        assert!(!has(40 * b1 as i64 - 5), "{what}");
                    }
                    if b0 < b1 || b1 == nb {
                        assert!(has(40 * b0 as i64 - 5), "{what}");
                    }
                    // coded strings stay coded (but for the PDT's drain
                    // past the last stable row, which arrives plain), and
                    // the sparse index finds the folded rows
                    for (b, blk) in folded.column_blocks(2).iter().enumerate() {
                        if policy > 0 || folded.block_sk_bounds(b).1[0] < Value::Int(190) {
                            assert_eq!(blk.encoding, Encoding::GlobalCode, "{what}, block {b}");
                        }
                    }
                    for r in want.iter().filter(|r| in_window(r[0].as_int())) {
                        let key: Vec<Value> = sk.iter().map(|&c| r[c].clone()).collect();
                        let at = folded.sid_range(Some(&key), Some(&key));
                        let found =
                            (at.start..at.end).any(|sid| folded.get_row(sid, &io).unwrap() == *r);
                        assert!(found, "{what}: {r:?}");
                    }
                }
            }
            // an image without blocks folds its append gap through [0, 0)
            let empty = load(&sk, &[]);
            let ins = [Upd::Ins(vec![
                Value::Int(7),
                Value::Int(70),
                Value::Str("x".into()),
            ])];
            for policy in 0..3 {
                let d = Delta::of(policy, &sk, &[], &ins, |_| true);
                let grown = fold_blocks(&empty, d.layers(), 0, 0, &io).unwrap();
                assert_eq!(grown.scan_all(&io).unwrap(), d.merge_rows(&[]));
                assert_eq!(grown.row_count(), 1, "policy {policy}");
            }
        }
    }

    /// A block whose payload does not decode fails the fold — and the
    /// scan — with `Corrupt`, never a panic; a range that keeps it does
    /// not read it.
    #[test]
    fn a_block_that_does_not_decode_fails_the_fold_with_corrupt() {
        let t = table(20);
        let io = IoTracker::new();
        // every byte of block 2's key payload continued (a varint runs
        // off, a bit width is out of range), then the block's checksum
        // re-sealed
        let blk = &t.column_blocks(0)[2];
        let mut stored = blk.checksum().to_le_bytes().to_vec();
        stored.extend_from_slice(&blk.payload);
        let mut image = encode_image(&t, 1);
        let hits: Vec<usize> = (0..image.len() - stored.len())
            .filter(|&i| image[i..i + stored.len()] == stored[..])
            .collect();
        assert_eq!(hits.len(), 1, "the block's payload is in the image once");
        let (sum_at, at) = (hits[0], hits[0] + 8);
        image[at..at + blk.payload.len()].fill(0xff);
        let sum = checksum(&image[at..at + blk.payload.len()]);
        image[sum_at..at].copy_from_slice(&sum.to_le_bytes());
        let (bad, _) = decode_image(&image, &io).unwrap();

        let p = updated_pdt();
        let mut v = Vdt::new(schema(), vec![0]);
        v.insert(vec![Value::Int(85), Value::Int(0), Value::Str("g".into())]);
        for (b0, b1) in [(0, 5), (2, 3), (1, 4)] {
            for layers in [DeltaLayers::Pdt(vec![&p]), DeltaLayers::Vdt(&v)] {
                let got = fold_blocks(&bad, layers, b0, b1, &io);
                assert!(
                    matches!(got, Err(ColumnarError::Corrupt(_))),
                    "[{b0}, {b1}): {got:?}"
                );
            }
        }
        assert!(fold_blocks(&bad, DeltaLayers::Pdt(vec![&p]), 3, 5, &io).is_ok());
        // a query scan ends with the error, then stays done
        let mut scan = one_segment(
            &bad,
            DeltaLayers::None,
            vec![0, 1],
            ScanBounds::default(),
            io.clone(),
            ScanClock::new(),
        );
        assert!(scan.try_next_batch().unwrap().is_some());
        assert!(scan.try_next_batch().unwrap().is_some());
        assert!(matches!(
            scan.try_next_batch(),
            Err(ColumnarError::Corrupt(_))
        ));
        assert!(scan.try_next_batch().unwrap().is_none());
        // so does a ranged by-key scan, whose key probes may hit it first
        let scan = one_segment(
            &bad,
            DeltaLayers::Vdt(&v),
            vec![1],
            ScanBounds {
                lo: Some(vec![Value::Int(90)]),
                hi: Some(vec![Value::Int(110)]),
            },
            io.clone(),
            ScanClock::new(),
        );
        ends_corrupt(scan, "one segment, by key");
        // ... and a union whose later partition holds the block, plain or
        // key-ranged by key (that partition's start probe reads it)
        for by_key in [false, true] {
            let layers = || match by_key {
                true => DeltaLayers::Vdt(&v),
                false => DeltaLayers::None,
            };
            let seg = |stable, rid_base| ScanSegment {
                stable,
                layers: layers(),
                rid_base,
                io: io.clone(),
            };
            let bounds = match by_key {
                true => ScanBounds {
                    lo: Some(vec![Value::Int(120)]),
                    hi: Some(vec![Value::Int(130)]),
                },
                false => ScanBounds::default(),
            };
            let segments = vec![seg(&t, 0), seg(&bad, 20 + by_key as u64)];
            let scan = TableScan::new(segments, vec![0, 1], bounds, ScanClock::new());
            ends_corrupt(scan, &format!("second segment, by key: {by_key}"));
        }
    }

    /// Drain `scan` to its error: `Corrupt`, after which the scan is over.
    fn ends_corrupt(mut scan: TableScan<'_>, what: &str) {
        let failed = loop {
            match scan.try_next_batch() {
                Ok(Some(_)) => continue,
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        assert!(
            matches!(failed, Some(ColumnarError::Corrupt(_))),
            "{what}: {failed:?}"
        );
        assert!(scan.try_next_batch().unwrap().is_none(), "{what}");
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
            blocks_pruned: 1,
            values_decoded: 6144,
            blocks_fallback: 0,
            ..ScanCounts::default()
        };
        c.paths[MergePath::PdtKernel as usize] = 1;
        assert_eq!(c.path_label(), "pdt-kernel");
        assert_eq!(
            c.to_string(),
            "[rows=2048 batches=2 time=1.500ms path=pdt-kernel \
             blocks=3 decoded/5 zone-skipped bytes=4096 segments=1 \
             pruned=1 values=6144 fallback=0]"
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
            one_segment(
                &t,
                DeltaLayers::Pdt(vec![&p]),
                vec![1, 2],
                ScanBounds::default(),
                io.clone(),
                ScanClock::new(),
            )
        };
        let vdt_scan = |io: &IoTracker| {
            one_segment(
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
