//! Sort-key ranking: where new rows go.
//!
//! An insert is positioned by its sort key — the paper's
//! `SELECT rid WHERE SK > sk ORDER BY rid LIMIT 1`. [`rank_keys`] answers
//! it for a sorted batch of keys, with the same two arms as
//! [`gather_rows`](crate::gather_rows):
//!
//! * **by position** (a PDT stack, or a clean image): the stable image's
//!   block zone map ([`StableTable::block_max_keys`]) names the one block
//!   a key's lower bound lands in; that block's sort-key columns are
//!   decoded — once for every key landing there, the keys being sorted —
//!   and bisected. The stable lower bound and "the row there has this
//!   key" are then lifted through each layer, bottom up, by
//!   [`Pdt::lift_rank`]: one descent per layer, keys compared in the
//!   layer's insert table. A key above every block's maximum decodes
//!   nothing.
//! * **by key** (VDT, row buffer): positions in a value-merged image are
//!   only known by merging, so the keys are cut into runs whose
//!   conservative sparse-index ranges touch, and each run is one
//!   sort-key-only ranged [`TableScan`] that the run's keys bisect with
//!   prepared compares.
//!
//! Both report, per key, its rank among the visible rows and whether a
//! visible row carries that very key; what a duplicate means is the
//! caller's call.

use crate::ops::scan::{DeltaLayers, ScanBounds, ScanSegment, TableScan};
use crate::stats::ScanClock;
use columnar::{ColumnVec, ColumnarError, IoTracker, PreparedKey, StableTable, Value};
use pdt::Pdt;
use std::cmp::Ordering;
use std::time::Instant;

/// What [`rank_keys`] found, one entry per probe key in probe order.
#[derive(Debug, Default)]
pub struct KeyRanks {
    /// The number of visible rows sorting before the key, plus the
    /// segment's `rid_base`: where a row with that key is inserted,
    /// before the batch's own rows shift it.
    pub rids: Vec<u64>,
    /// Whether a visible row has exactly that key.
    pub eq: Vec<bool>,
    /// Stable blocks decoded to answer (a block counts once, however many
    /// sort-key columns were read).
    pub blocks_decoded: u64,
}

/// Rank sorted, distinct full sort keys `keys` among the visible rows of
/// one segment. Block reads are charged to the segment's tracker, time to
/// `clock`, as a scan's would be; a block that fails to decode is
/// [`ColumnarError::Corrupt`].
pub fn rank_keys(
    seg: ScanSegment<'_>,
    keys: &[&[Value]],
    clock: &ScanClock,
) -> Result<KeyRanks, ColumnarError> {
    match &seg.layers {
        DeltaLayers::None => by_position(&seg, &[], keys, clock),
        DeltaLayers::Pdt(layers) => by_position(&seg, layers, keys, clock),
        DeltaLayers::Vdt(_) | DeltaLayers::Rows(_) => by_key(&seg, keys, clock),
    }
}

/// The positional arm: a stable lower bound per key, lifted through the
/// PDT stack (`layers`, bottom first; none for a clean image).
fn by_position(
    seg: &ScanSegment<'_>,
    layers: &[&Pdt],
    keys: &[&[Value]],
    clock: &ScanClock,
) -> Result<KeyRanks, ColumnarError> {
    let t0 = Instant::now();
    let mut out = KeyRanks::default();
    let mut block = SortKeyBlock::new(seg.stable);
    for &key in keys {
        let (mut pos, mut eq) = block.lower_bound(key, &seg.io)?;
        for layer in layers {
            (pos, eq) = layer.lift_rank(pos, eq, key);
        }
        out.rids.push(seg.rid_base + pos);
        out.eq.push(eq);
    }
    out.blocks_decoded = block.decoded;
    clock.charge(t0);
    Ok(out)
}

/// The sort-key columns of the one stable block sorted probes are
/// currently landing in.
struct SortKeyBlock<'t> {
    stable: &'t StableTable,
    cols: Vec<ColumnVec>,
    loaded: Option<usize>,
    decoded: u64,
}

impl<'t> SortKeyBlock<'t> {
    fn new(stable: &'t StableTable) -> Self {
        let schema = stable.schema();
        let cols = stable.sort_key().cols().iter();
        SortKeyBlock {
            stable,
            cols: cols.map(|&c| ColumnVec::new(schema.vtype(c))).collect(),
            loaded: None,
            decoded: 0,
        }
    }

    /// The first SID whose sort key is not below `key`, and whether that
    /// row's key equals it: the zone map picks the block (the first whose
    /// maximum is not below `key`), one decode of its sort-key columns
    /// and a bisection do the rest.
    fn lower_bound(&mut self, key: &[Value], io: &IoTracker) -> Result<(u64, bool), ColumnarError> {
        let stable = self.stable;
        let b = stable
            .block_max_keys()
            .partition_point(|max| max.as_slice() < key);
        if b == stable.block_max_keys().len() {
            return Ok((stable.row_count(), false));
        }
        if self.loaded != Some(b) {
            for (buf, &c) in self.cols.iter_mut().zip(stable.sort_key().cols()) {
                stable.read_block_into(c, b, io, buf)?;
            }
            self.loaded = Some(b);
            self.decoded += 1;
        }
        let (start, end) = stable.block_range(b);
        let rows = (end - start) as usize;
        if self.cols.iter().any(|c| c.len() != rows) {
            return Err(ColumnarError::Corrupt(format!(
                "sort-key block {b} does not decode to its {rows} rows"
            )));
        }
        let probe = PreparedKey::prepare(key, &self.cols);
        let (at, eq) = bisect(&probe, &self.cols, 0, rows);
        Ok((start + at as u64, eq))
    }
}

/// The first row of `cols` in `[from, rows)` that does not sort below
/// `probe` (`rows` when none), and whether it equals the probe.
fn bisect(probe: &PreparedKey<'_>, cols: &[ColumnVec], from: usize, rows: usize) -> (usize, bool) {
    let (mut at, mut hi) = (from, rows);
    while at < hi {
        let mid = at + (hi - at) / 2;
        if probe.cmp_row(cols, mid) == Ordering::Greater {
            at = mid + 1;
        } else {
            hi = mid;
        }
    }
    (at, at < rows && probe.cmp_row(cols, at) == Ordering::Equal)
}

/// The by-key arm: the keys cut into runs whose conservative sparse-index
/// ranges ([`StableTable::sid_range`]) touch — so the blocks around the
/// keys are decoded, not the blocks between them — one ranged scan each.
fn by_key(
    seg: &ScanSegment<'_>,
    keys: &[&[Value]],
    clock: &ScanClock,
) -> Result<KeyRanks, ColumnarError> {
    let stable = seg.stable;
    let mut out = KeyRanks::default();
    let mut k = 0usize;
    while k < keys.len() {
        let mut reach = stable.sid_range(Some(keys[k]), Some(keys[k])).end;
        let mut end = k + 1;
        while let Some(key) = keys.get(end) {
            let next = stable.sid_range(Some(key), Some(key));
            if next.start > reach {
                break;
            }
            reach = reach.max(next.end);
            end += 1;
        }
        rank_run(seg, &keys[k..end], clock, &mut out)?;
        k = end;
    }
    Ok(out)
}

/// Rank one run of sorted keys with a single ranged scan of the sort-key
/// columns. Batches arrive in key order, so each key bisects its batch
/// with [`PreparedKey::cmp_row`] — no `Value` is built per scanned row.
/// Keys past every scanned row rank at the range end; a fully ghosted
/// range emits nothing and falls back to the scan's start rank.
fn rank_run(
    seg: &ScanSegment<'_>,
    keys: &[&[Value]],
    clock: &ScanClock,
    out: &mut KeyRanks,
) -> Result<(), ColumnarError> {
    let (Some(lo), Some(hi)) = (keys.first(), keys.last()) else {
        return Ok(());
    };
    let bounds = ScanBounds {
        lo: Some(lo.to_vec()),
        hi: Some(hi.to_vec()),
    };
    let run = ScanSegment {
        stable: seg.stable,
        layers: seg.layers.clone(),
        rid_base: seg.rid_base,
        io: seg.io.clone(),
    };
    let sk_cols = seg.stable.sort_key().cols().to_vec();
    let mut scan = TableScan::new(vec![run], sk_cols, bounds, clock.clone());
    let mut last_end = scan.start_rid();
    let mut k = 0usize;
    while k < keys.len() {
        let Some(b) = scan.try_next_batch()? else {
            break;
        };
        let n = b.num_rows();
        let mut from = 0usize;
        while let Some(key) = keys.get(k) {
            let probe = PreparedKey::prepare(key, &b.cols);
            let (at, eq) = bisect(&probe, &b.cols, from, n);
            if at == n {
                break; // the probe sorts past this batch
            }
            out.rids.push(b.rid_start + at as u64);
            out.eq.push(eq);
            from = at;
            k += 1;
        }
        last_end = b.rid_start + n as u64;
    }
    out.rids
        .extend(std::iter::repeat_n(last_end, keys.len() - k));
    out.eq.extend(std::iter::repeat_n(false, keys.len() - k));
    out.blocks_decoded += scan.counts().blocks_decoded;
    Ok(())
}
