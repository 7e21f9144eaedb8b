//! One partition's MergeScan: decode a block of the stable image, merge
//! the delta into it — a PDT stack by position, a VDT or row buffer by
//! key — and emit the result; after the last block, drain what the delta
//! still holds past it. Under a predicate, a block's predicate columns
//! are decoded and selected first and the rest read only where it holds
//! (`MergeScan::filtered_block`). [`TableScan`](super::TableScan) runs one
//! per partition, [`fold_blocks`] one over a block range.

use super::{DeltaLayers, MergePath, ScanBounds, ScanCounts};
use crate::batch::{gather, Batch};
use crate::expr::Expr;
use columnar::{
    ColumnVec, ColumnarError, IoStats, IoTracker, ScanRange, StableTable, TableBuilder, Value,
    ValueType,
};
use pdt::PdtMerger;
use rowstore::RowMerger;
use std::fmt;
use std::ops::Range;
use vdt::VdtMerger;

enum MergeState<'a> {
    None,
    Pdt {
        /// One merger per layer, bottom first.
        mergers: Vec<PdtMerger<'a>>,
        /// Do the inserts at the range's end SID drain? A key-ranged scan
        /// always does (they may sort inside its bounds); a block range
        /// only at the end of the image — below it they precede block
        /// `b1`'s first row and belong to the next range.
        drains_tail: bool,
    },
    ByKey {
        merger: ByKey<'a>,
        /// The sort-key columns among the decode buffers.
        sk: KeyCols,
        /// Where draining buffered rows stops (`None`: drain them all).
        upper: Option<Vec<Value>>,
    },
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
/// buffers — resolved once, when the scan opens.
enum KeyCols {
    /// Adjacent and in key order (always, for a one-column key): the key is
    /// borrowed as `bufs[range]`.
    Borrowed(Range<usize>),
    /// Interleaved with other columns: `bufs[at[j]]` is copied into
    /// `scratch[j]` block by block (the allocations are reused).
    Gathered {
        at: Vec<usize>,
        scratch: Vec<ColumnVec>,
    },
}

impl KeyCols {
    /// Locate `table`'s sort-key columns in `io_cols` (which holds them
    /// all).
    fn locate(table: &StableTable, io_cols: &[usize]) -> Self {
        let sk = table.sort_key().cols();
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
                scratch: sk
                    .iter()
                    .map(|&c| ColumnVec::new(table.schema().vtype(c)))
                    .collect(),
                at,
            },
        }
    }
}

/// The decode → merge → emit loop over the stable SIDs of one image.
pub(super) struct MergeScan<'a> {
    table: &'a StableTable,
    proj: Vec<usize>,
    /// Value types of `proj`, in projection order.
    types: Vec<ValueType>,
    range: ScanRange,
    /// Columns read from storage: the projection, then (by-key merges
    /// only) every sort-key column it lacks.
    io_cols: Vec<usize>,
    /// One decode buffer per `io_cols` entry. A block is decoded into them
    /// in place; a merge that copies (or emits nothing of) a buffer leaves
    /// its allocation here for the next block, one that passes the decoded
    /// vector on as the output leaves an empty column behind.
    bufs: Vec<ColumnVec>,
    /// One merge output buffer per projected column (see
    /// [`PdtMerger::merge_block_owned`]; the by-key arm merges into it).
    spare: Vec<ColumnVec>,
    state: MergeState<'a>,
    /// Blocks still to decode.
    blocks: Range<usize>,
    /// The blocks are decoded and the delta drained past them.
    finished: bool,
    io: IoTracker,
    /// RID of the first row this scan would emit (even if it emits none —
    /// e.g. a fully ghosted range); DML rank computations rely on it.
    start_rid: u64,
    /// Blocks the zone map pruned off the range (clean key-ranged scans
    /// only).
    zone_skipped: u64,
    /// The scan's predicate, when it has one.
    filter: Option<Box<ScanFilter>>,
}

/// A MergeScan's predicate and the buffers its filtered blocks use. The
/// projection splits into the columns the predicate reads and the rest.
struct ScanFilter {
    /// The predicate over the projection, for a block merged in every
    /// column (merge, then select).
    pred: Expr,
    /// The predicate over the predicate columns alone, in `pred_at` order.
    narrow: Expr,
    /// Projection indices of the predicate columns (ascending) and of the
    /// rest.
    pred_at: Vec<usize>,
    rest_at: Vec<usize>,
    /// Table columns of `pred_at` and `rest_at`.
    pred_cols: Vec<usize>,
    rest_cols: Vec<usize>,
    /// The predicate columns of a block, as decoded.
    decoded: Batch,
    /// The same columns merged through the one layer touching the block.
    merged: Batch,
    /// One read buffer per `rest_cols` entry.
    rest: Vec<ColumnVec>,
    /// The stable rows (block-relative) the rest is read at.
    rows: Vec<usize>,
}

impl ScanFilter {
    fn new(pred: &Expr, proj: &[usize]) -> Self {
        let mut pred_at = pred.columns();
        if pred_at.is_empty() && !proj.is_empty() {
            // a predicate that reads no column still needs the block's rows
            pred_at.push(0);
        }
        let rest_at: Vec<usize> = (0..proj.len()).filter(|i| !pred_at.contains(i)).collect();
        let at = pred_at.clone();
        // decode buffers take their representation from the first block
        let bufs = |n: usize| vec![ColumnVec::new(ValueType::Bool); n];
        let batch = |n| Batch {
            cols: bufs(n),
            rid_start: 0,
        };
        ScanFilter {
            narrow: (pred.clone()).remap_cols(|c| at.iter().position(|&a| a == c).unwrap_or(0)),
            pred: pred.clone(),
            pred_cols: pred_at.iter().map(|&i| proj[i]).collect(),
            rest_cols: rest_at.iter().map(|&i| proj[i]).collect(),
            decoded: batch(pred_at.len()),
            merged: batch(pred_at.len()),
            rest: bufs(rest_at.len()),
            rows: Vec::new(),
            pred_at,
            rest_at,
        }
    }

    /// The rows of `batch` (merged in every projected column) the
    /// predicate accepts.
    fn select(&self, batch: Batch) -> Batch {
        let sel = self.pred.select(&batch, (0..batch.num_rows()).collect());
        batch.gather(&sel)
    }
}

impl<'a> MergeScan<'a> {
    /// The scan of `layers` over `table`'s stable SIDs `range`: key-ranged
    /// when `bounds` is given (by-key merges start and stop at the range's
    /// edge keys, and clean scans skip blocks by zone map), a block range
    /// otherwise. The sort-key probes that position a key-ranged by-key
    /// merge are read here and charged to `counts`; one that fails to
    /// decode is the error.
    pub(super) fn open(
        table: &'a StableTable,
        layers: DeltaLayers<'a>,
        proj: Vec<usize>,
        range: ScanRange,
        bounds: Option<&ScanBounds>,
        io: IoTracker,
        counts: &mut ScanCounts,
    ) -> Result<Self, ColumnarError> {
        let keyed = bounds.is_some();
        let by_key = matches!(layers, DeltaLayers::Vdt(_) | DeltaLayers::Rows(_));
        // a key-ranged by-key merge starts at the range's first stable key
        // (at the very beginning, before any buffered row, from SID 0 or
        // over a block range), and stops draining buffered rows at the key
        // of the first stable row past the range
        let mut probe = |at: bool, sid| at.then(|| probe_key(table, sid, &io, counts)).transpose();
        let start_key = probe(by_key && keyed && range.start != 0, range.start)?;
        let upper = probe(by_key && keyed && range.end < table.row_count(), range.end)?;
        // a by-key merge also reads the sort-key columns
        let io_cols = if by_key {
            value_io_cols(table, &proj)
        } else {
            proj.clone()
        };
        let by_key_state = |merger| MergeState::ByKey {
            merger,
            sk: KeyCols::locate(table, &io_cols),
            upper,
        };
        let state = match layers {
            DeltaLayers::None => MergeState::None,
            DeltaLayers::Pdt(layers) => {
                // stack the mergers: each layer starts where the previous
                // layer's output begins
                let mut mergers: Vec<PdtMerger<'a>> = Vec::with_capacity(layers.len());
                for p in layers {
                    let start = mergers.last().map_or(range.start, |m| m.next_rid());
                    mergers.push(PdtMerger::new(p, start));
                }
                let drains_tail = keyed || range.end == table.row_count();
                MergeState::Pdt {
                    mergers,
                    drains_tail,
                }
            }
            DeltaLayers::Vdt(v) => by_key_state(ByKey::Vdt(Box::new(match &start_key {
                None => VdtMerger::new(v),
                Some(key) => VdtMerger::new_ranged(v, range.start, key),
            }))),
            DeltaLayers::Rows(rb) => by_key_state(ByKey::Rows(Box::new(match &start_key {
                None => RowMerger::new(rb),
                Some(key) => RowMerger::new_ranged(rb, range.start, key),
            }))),
        };
        let mut start_rid = match &state {
            MergeState::None => range.start,
            MergeState::Pdt { mergers, .. } => mergers.last().map_or(range.start, |m| m.next_rid()),
            MergeState::ByKey { merger, .. } => merger.next_rid(),
        };
        let mut zone_skipped = 0u64;
        let blocks = if range.is_empty() {
            0..0
        } else {
            let mut first = table.block_of(range.start);
            let mut last = table.block_of(range.end.saturating_sub(1)) + 1;
            if let (Some(bounds), MergeState::None) = (bounds, &state) {
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
                zone_skipped = conservative - last.saturating_sub(first) as u64;
            }
            first..last.max(first)
        };
        let types: Vec<ValueType> = proj.iter().map(|&c| table.schema().vtype(c)).collect();
        Ok(MergeScan {
            table,
            bufs: (io_cols.iter())
                .map(|&c| ColumnVec::new(table.schema().vtype(c)))
                .collect(),
            spare: empty_cols(&types),
            types,
            proj,
            range,
            io_cols,
            state,
            blocks,
            finished: false,
            io,
            start_rid,
            zone_skipped,
            filter: None,
        })
    }

    /// Emit only the rows `pred` (over the projection) accepts — see
    /// [`TableScan::filter`](super::TableScan::filter).
    pub(super) fn set_filter(&mut self, pred: &Expr) {
        self.filter = Some(Box::new(ScanFilter::new(pred, &self.proj)));
    }

    /// RID of the first row this scan would emit, local to its image.
    pub(super) fn start_rid(&self) -> u64 {
        self.start_rid
    }

    /// How the scan merges its delta.
    pub(super) fn path(&self) -> MergePath {
        match &self.state {
            MergeState::None => MergePath::Clean,
            MergeState::Pdt { .. } => MergePath::PdtKernel,
            MergeState::ByKey {
                merger: ByKey::Vdt(_),
                ..
            } => MergePath::VdtKernel,
            MergeState::ByKey {
                merger: ByKey::Rows(_),
                ..
            } => MergePath::RowsKernel,
        }
    }

    /// Blocks the zone map pruned off the range.
    pub(super) fn zone_skipped(&self) -> u64 {
        self.zone_skipped
    }

    /// The next block merged, then the rows the delta drains past the
    /// last block (either may be empty); `None` once both are out. Block
    /// reads are charged to `counts`; a block that fails to decode is the
    /// error.
    pub(super) fn next_batch(
        &mut self,
        counts: &mut ScanCounts,
    ) -> Result<Option<Batch>, ColumnarError> {
        if let Some(b) = self.blocks.next() {
            if !matches!(self.state, MergeState::ByKey { .. }) {
                if let Some(mut f) = self.filter.take() {
                    let out = self.filtered_block(b, &mut f, counts);
                    self.filter = Some(f);
                    return out.map(Some);
                }
            }
            let (start_sid, len) = self.read_block(b, counts)?;
            let batch = self.merge_block(start_sid, len);
            return Ok(Some(match &self.filter {
                Some(f) => {
                    counts.blocks_fallback += 1;
                    f.select(batch)
                }
                None => batch,
            }));
        }
        if self.finished {
            return Ok(None);
        }
        self.finished = true;
        let drained = self.drain();
        Ok(match &self.filter {
            Some(f) => drained.map(|b| f.select(b)),
            None => drained,
        })
    }

    /// Block `b` under the scan's predicate `f`, for a clean scan or a PDT
    /// stack. Every layer plans the block first. When at most one layer
    /// touches it, only the predicate columns are decoded — merged through
    /// that layer's plan if there is one — and selected; a block no row of
    /// which survives ends there. Otherwise the plan, narrowed to the
    /// surviving rows, says at which stable rows the other columns are read
    /// and what it inserts and patches among them. A block more than one
    /// layer touches is merged in every column, then selected.
    fn filtered_block(
        &mut self,
        b: usize,
        f: &mut ScanFilter,
        counts: &mut ScanCounts,
    ) -> Result<Batch, ColumnarError> {
        let (bstart, bend) = self.table.block_range(b);
        let lo = self.range.start.max(bstart);
        let len = (self.range.end.min(bend) - lo) as usize;
        let (skip, clipped) = ((lo - bstart) as usize, len as u64 != bend - bstart);
        // plan every layer, noting each touching one and its input rows;
        // below the first of them the block passes through unchanged
        let mut touched = Vec::new();
        if let MergeState::Pdt { mergers, .. } = &mut self.state {
            let (mut start, mut n) = (lo, len);
            for (k, m) in mergers.iter_mut().enumerate() {
                let rid0 = m.next_rid();
                if m.plan_block(start, n) {
                    touched.push((k, n));
                }
                (start, n) = (rid0, (m.next_rid() - rid0) as usize);
            }
        }
        if touched.len() > 1 {
            counts.blocks_fallback += 1;
            self.read_block(b, counts)?;
            if let MergeState::Pdt { mergers, .. } = &mut self.state {
                for &(k, n) in &touched {
                    mergers[k].apply_owned(n, &self.proj, &mut self.bufs, &mut self.spare);
                }
            }
            let cols = take_cols(&mut self.bufs);
            // as in `merge_block`: the next block decodes into what the
            // layers left in `spare`
            std::mem::swap(&mut self.bufs, &mut self.spare);
            return Ok(f.select(Batch { cols, rid_start: 0 }));
        }
        let (table, io) = (self.table, &self.io);
        let whole = |cols: usize| (bend - bstart) * cols as u64;
        // the predicate columns, decoded and clipped to the range ...
        for (buf, &c) in f.decoded.cols.iter_mut().zip(&f.pred_cols) {
            table.read_block_into(c, b, io, buf)?;
            if clipped {
                buf.retain_range(skip, skip + len);
            }
        }
        counts.blocks_decoded += 1;
        counts.values_decoded += whole(f.pred_cols.len());
        counts.charge(block_io(table, &f.pred_cols, b));
        // ... merged through the layer that touches the block, if one does
        let mut layer = match (&mut self.state, touched.first()) {
            (MergeState::Pdt { mergers, .. }, Some(&(k, _))) => {
                let m = &mut mergers[k];
                for (o, c) in f.merged.cols.iter_mut().zip(&f.decoded.cols) {
                    o.reset_like(c);
                }
                m.apply_planned(len, &f.pred_cols, &f.decoded.cols, &mut f.merged.cols);
                Some(m)
            }
            _ => None,
        };
        let tested = match layer {
            Some(_) => &mut f.merged,
            None => &mut f.decoded,
        };
        let n = tested.num_rows();
        let sel = f.narrow.select(tested, (0..n).collect());
        if sel.is_empty() {
            counts.blocks_pruned += 1;
            return Ok(Batch::default());
        }
        // the other columns: read whole and merged whole when most rows
        // survive (a bulk decode beats reading that many rows one by one),
        // otherwise read at the survivors' stable rows only
        let (dense, all) = (2 * sel.len() > n, sel.len() == n);
        if !dense {
            match &mut layer {
                Some(m) => m.narrow_plan(&sel, &mut f.rows),
                None => {
                    f.rows.clear();
                    f.rows.extend(&sel);
                }
            }
            f.rows.iter_mut().for_each(|r| *r += skip);
        }
        for (buf, &c) in f.rest.iter_mut().zip(&f.rest_cols) {
            if dense {
                table.read_block_into(c, b, io, buf)?;
                if clipped {
                    buf.retain_range(skip, skip + len);
                }
                counts.values_decoded += whole(1);
            } else {
                counts.values_decoded += table.read_block_at(c, b, &f.rows, io, buf)? as u64;
            }
        }
        counts.charge(block_io(table, &f.rest_cols, b));
        // the batch, in projection order; a dense selection is gathered
        // last, from whole merged columns
        let rows = if dense { len } else { f.rows.len() };
        let rest = match layer {
            Some(m) => {
                let mut out: Vec<ColumnVec> = f.rest.iter().map(ColumnVec::empty_like).collect();
                m.apply_planned(rows, &f.rest_cols, &f.rest, &mut out);
                out
            }
            None => take_cols(&mut f.rest),
        };
        let mut cols: Vec<ColumnVec> = Vec::with_capacity(self.proj.len());
        cols.resize_with(self.proj.len(), || ColumnVec::new(ValueType::Bool));
        for (&at, c) in f.pred_at.iter().zip(take_cols(&mut tested.cols)) {
            cols[at] = if all { c } else { gather(&c, &sel) };
        }
        for (&at, c) in f.rest_at.iter().zip(rest) {
            cols[at] = if dense && !all { gather(&c, &sel) } else { c };
        }
        Ok(Batch { cols, rid_start: 0 })
    }

    /// Decode the scan's columns for block `b` into `self.bufs`, clipped
    /// in place to the scan range. Returns the SID of the first row kept
    /// and how many rows were.
    fn read_block(
        &mut self,
        b: usize,
        counts: &mut ScanCounts,
    ) -> Result<(u64, usize), ColumnarError> {
        let (bstart, bend) = self.table.block_range(b);
        let lo = self.range.start.max(bstart);
        let hi = self.range.end.min(bend);
        for (buf, &c) in self.bufs.iter_mut().zip(&self.io_cols) {
            self.table.read_block_into(c, b, &self.io, buf)?;
            if (lo, hi) != (bstart, bend) {
                // representation-preserving: coded blocks stay coded
                buf.retain_range((lo - bstart) as usize, (hi - bstart) as usize);
            }
        }
        counts.blocks_decoded += 1;
        counts.values_decoded += (bend - bstart) * self.io_cols.len() as u64;
        counts.charge(block_io(self.table, &self.io_cols, b));
        Ok((lo, (hi - lo) as usize))
    }

    /// Merge the decoded block of `len` rows (SIDs from `start_sid`).
    fn merge_block(&mut self, start_sid: u64, len: usize) -> Batch {
        match &mut self.state {
            MergeState::None => Batch {
                cols: take_cols(&mut self.bufs),
                rid_start: start_sid,
            },
            MergeState::Pdt { mergers, .. } => {
                let rid0 = feed_pdt(
                    mergers,
                    &self.proj,
                    start_sid,
                    len,
                    &mut self.bufs,
                    &mut self.spare,
                );
                let cols = take_cols(&mut self.bufs);
                // a layer that had to copy left the decode buffers in
                // `spare`: the next block decodes into them
                std::mem::swap(&mut self.bufs, &mut self.spare);
                Batch {
                    cols,
                    rid_start: rid0,
                }
            }
            MergeState::ByKey { merger, sk, .. } => {
                // the decoded columns are the projection, then any
                // sort-key column the projection lacks
                let cols_in = &self.bufs[..self.proj.len()];
                let sk_in: &[ColumnVec] = match sk {
                    KeyCols::Borrowed(at) => &self.bufs[at.clone()],
                    KeyCols::Gathered { at, scratch } => {
                        for (s, &p) in scratch.iter_mut().zip(at.iter()) {
                            s.reset_like(&self.bufs[p]);
                            s.extend_range(&self.bufs[p], 0, len);
                        }
                        scratch
                    }
                };
                // coded inputs get coded outputs so the merge stays on the
                // u32 path
                for (s, c) in self.spare.iter_mut().zip(cols_in) {
                    s.reset_like(c);
                }
                let rid0 = merger.next_rid();
                merger.merge_block(len, &self.proj, sk_in, cols_in, &mut self.spare);
                Batch {
                    cols: take_cols(&mut self.spare),
                    rid_start: rid0,
                }
            }
        }
    }

    /// The rows the delta holds past the last block, if any.
    fn drain(&mut self) -> Option<Batch> {
        match &mut self.state {
            MergeState::None
            | MergeState::Pdt {
                drains_tail: false, ..
            } => None,
            MergeState::Pdt { .. } => self.drain_pdt(),
            MergeState::ByKey { merger, upper, .. } => {
                // coded like the stable columns: a drained string the
                // dictionary holds stays a code, as merged ones do
                let mut out: Vec<ColumnVec> = (self.proj.iter())
                    .map(|&c| match self.table.column_dict(c) {
                        Some(dict) => ColumnVec::new_coded(dict.clone()),
                        None => ColumnVec::new(self.table.schema().vtype(c)),
                    })
                    .collect();
                let rid0 = merger.next_rid();
                merger.drain_inserts(upper.as_deref(), &self.proj, &mut out);
                non_empty(out, rid0)
            }
        }
    }

    /// Drain the trailing inserts of every PDT layer, each pushed through
    /// the layers above it.
    fn drain_pdt(&mut self) -> Option<Batch> {
        let MergeState::Pdt { mergers, .. } = &mut self.state else {
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
                let r0 = feed_pdt(
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
        non_empty(collected, rid_start.unwrap_or(0))
    }
}

impl fmt::Debug for MergeScan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MergeScan")
            .field("range", &self.range)
            .field("path", &self.path())
            .finish()
    }
}

/// Push the block of `len` rows in `cols` (SIDs from `start`) through the
/// PDT layers `mergers`, bottom first — each layer's output RIDs are the
/// next layer's SIDs. Each layer classifies the block for itself: one that
/// has no entry in its span leaves `cols` exactly as it found them.
/// Returns the RID of the merged block's first row.
fn feed_pdt(
    mergers: &mut [PdtMerger<'_>],
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

/// `cols` as a batch from `rid_start`, unless they hold no row.
fn non_empty(cols: Vec<ColumnVec>, rid_start: u64) -> Option<Batch> {
    (!cols[0].is_empty()).then_some(Batch { cols, rid_start })
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
fn probe_key(
    table: &StableTable,
    sid: u64,
    io: &IoTracker,
    counts: &mut ScanCounts,
) -> Result<Vec<Value>, ColumnarError> {
    let key = table.sk_of_row(sid, io)?;
    counts.charge(block_io(
        table,
        table.sort_key().cols(),
        table.block_of(sid),
    ));
    Ok(key)
}

/// Fold `layers` into blocks `[b0, b1)` of `stable`: the block-range
/// MergeScan (every column) streamed into [`TableBuilder::splice`], which
/// keeps every other block's encoded payload. This is the merge of every
/// maintenance step of every update policy — a checkpoint is the range
/// over every block — and it runs the kernels a query's MergeScan runs.
///
/// `layers` is what addresses the blocks. A PDT stack is passed as pinned:
/// it is merged from SID `s0` (inserts there included), and its inserts at
/// `s1` drain only when `s1` is the row count — below that they precede
/// block `b1`. A by-key structure is passed already cut to the range's
/// key window: it is merged from its front, since a window insert may sort
/// between block `b0 − 1`'s last key and block `b0`'s first, and drained
/// whole. Block reads are charged to `io`; a block that fails to decode
/// returns its error.
pub fn fold_blocks(
    stable: &StableTable,
    layers: DeltaLayers<'_>,
    b0: usize,
    b1: usize,
    io: &IoTracker,
) -> Result<StableTable, ColumnarError> {
    let mut builder = TableBuilder::splice(stable, b0, b1)?;
    let range = ScanRange {
        start: stable.block_range(b0).0,
        end: stable.block_range(b1).0,
    };
    let proj = (0..stable.num_columns()).collect();
    let mut counts = ScanCounts::default();
    let mut scan = MergeScan::open(stable, layers, proj, range, None, io.clone(), &mut counts)?;
    while let Some(batch) = scan.next_batch(&mut counts)? {
        builder.append_cols(batch.cols)?;
    }
    builder.finish()
}
