//! Sparse row gather: the values of a few visible rows, by position.
//!
//! A scan answers "every row of this range"; positional DML asks for *these
//! k rows*. The PDT exists so that the second question never needs the
//! first: a RID translates to a SID in O(log n) per layer (Algorithm 1)
//! without reading a sort key, and a SID is a `(block, offset)` pair. So
//! [`gather_rows`] resolves each requested RID **top-down** through the
//! layer stack — an insert answers from its layer's value space, a MOD
//! chain overlays the columns it modified, everything else falls through to
//! the layer below and finally to the stable image — and decodes only the
//! blocks that hold a requested row, only for the requested columns.
//!
//! A value-addressed delta (VDT, row buffer) has no positional index —
//! that is the paper's point — so positions in its merged image are only
//! known by merging: its arm is a rid-clamped [`TableScan`] over the
//! requested columns (plus the sort key such a merge always reads), which
//! decodes every block from the partition's first up to the last requested
//! row. The two arms mirror the scan's own by-position / by-key split.

use crate::batch::Batch;
use crate::ops::scan::{DeltaLayers, ScanBounds, ScanSegment, TableScan};
use crate::ops::Operator;
use crate::stats::ScanClock;
use columnar::{ColumnVec, ColumnarError, IoTracker, StableTable, Value};
use pdt::Pdt;
use std::time::Instant;

/// What [`gather_rows`] found.
#[derive(Debug)]
pub struct Gathered {
    /// One row per requested RID, in RID order, holding the requested
    /// columns in request order.
    pub rows: Batch,
    /// Stable blocks decoded to answer (a block counts once, however many
    /// of its columns were read).
    pub blocks_decoded: u64,
}

/// Visible rows of one segment: its stable rows plus its layers' net ∆.
fn visible_rows(seg: &ScanSegment<'_>) -> u64 {
    let delta = match &seg.layers {
        DeltaLayers::None => 0,
        DeltaLayers::Pdt(layers) => layers.iter().map(|p| p.delta_total()).sum(),
        DeltaLayers::Vdt(v) => v.delta_total(),
        DeltaLayers::Rows(rb) => rb.delta_total(),
    };
    (seg.stable.row_count() as i64 + delta) as u64
}

/// Columns `cols` of the visible rows at `rids` (ascending, distinct;
/// global positions over `segments`, which are ordered by `rid_base` as
/// for [`TableScan::union`]).
///
/// A RID past the last visible row is [`ColumnarError::OutOfRange`],
/// reported before any block is read; a block that fails to decode is
/// [`ColumnarError::Corrupt`]. Block reads are charged to each segment's
/// tracker, time to `clock`, exactly as a scan's would be.
pub fn gather_rows(
    segments: Vec<ScanSegment<'_>>,
    rids: &[u64],
    cols: &[usize],
    clock: &ScanClock,
) -> Result<Gathered, ColumnarError> {
    let (Some(first), Some(last)) = (segments.first(), segments.last()) else {
        return Err(ColumnarError::OutOfRange {
            what: "segment",
            index: 0,
            len: 0,
        });
    };
    let total = last.rid_base + visible_rows(last);
    if let Some(&rid) = rids.last().filter(|&&r| r >= total) {
        return Err(ColumnarError::OutOfRange {
            what: "rid",
            index: rid,
            len: total,
        });
    }
    let schema = first.stable.schema();
    let mut out: Vec<ColumnVec> = cols
        .iter()
        .map(|&c| ColumnVec::with_capacity(schema.vtype(c), rids.len()))
        .collect();
    let mut blocks_decoded = 0u64;
    // segment `i` spans the rids in `[base_i, base_{i+1})`
    let bases: Vec<u64> = segments.iter().map(|s| s.rid_base).collect();
    // (no column asked: nothing to fetch, the range check was the job)
    let mut rest = if cols.is_empty() { &[] } else { rids };
    for (i, seg) in segments.into_iter().enumerate() {
        let end = bases.get(i + 1).copied().unwrap_or(u64::MAX);
        let (mine, later) = rest.split_at(rest.partition_point(|&r| r < end));
        rest = later;
        if mine.is_empty() {
            continue;
        }
        let local = mine.iter().map(|&r| r - seg.rid_base);
        blocks_decoded += match seg.layers {
            DeltaLayers::None => {
                by_position(seg.stable, &[], local, cols, &seg.io, clock, &mut out)
            }
            DeltaLayers::Pdt(layers) => {
                by_position(seg.stable, &layers, local, cols, &seg.io, clock, &mut out)
            }
            by_key => {
                let scan = TableScan::ranged(
                    seg.stable,
                    by_key,
                    cols.to_vec(),
                    ScanBounds::default(),
                    seg.io,
                    clock.clone(),
                );
                by_scan(scan, local, &mut out)
            }
        }?;
    }
    Ok(Gathered {
        rows: Batch {
            cols: out,
            rid_start: 0,
        },
        blocks_decoded,
    })
}

/// The positional arm: resolve each RID down the PDT stack (`layers`,
/// bottom first; none for a clean image), then read what the stack did not
/// answer from the stable block the SID lands in. RIDs ascend, so SIDs and
/// blocks do too: each touched block of each column is decoded once.
fn by_position(
    stable: &StableTable,
    layers: &[&Pdt],
    rids: impl Iterator<Item = u64>,
    cols: &[usize],
    io: &IoTracker,
    clock: &ScanClock,
    out: &mut [ColumnVec],
) -> Result<u64, ColumnarError> {
    let t0 = Instant::now();
    let mut bufs: Vec<ColumnVec> = out.iter().map(ColumnVec::empty_like).collect();
    // the block each buffer currently holds
    let mut loaded: Vec<Option<usize>> = vec![None; cols.len()];
    let mut cells: Vec<Option<Value>> = vec![None; cols.len()];
    let mut blocks = 0u64;
    let mut last_block = None;
    for rid in rids {
        // top-down: a layer's SIDs are the RIDs of the layer below
        let mut pos = rid;
        let mut in_stable = true;
        for layer in layers.iter().rev() {
            let vals = layer.vals();
            let hit = layer.resolve_rid(pos, |c, off| {
                if let Some(j) = cols.iter().position(|&x| x == c) {
                    cells[j].get_or_insert_with(|| vals.get_modify(c, off));
                }
            });
            if let Some(off) = hit.insert_off {
                for (cell, &c) in cells.iter_mut().zip(cols) {
                    cell.get_or_insert_with(|| vals.get_insert_col(off, c));
                }
                in_stable = false;
                break;
            }
            pos = hit.sid;
        }
        // where the stack left the row to the stable image, if it did
        let at = if !in_stable {
            None
        } else if pos < stable.row_count() {
            let b = stable.block_of(pos);
            Some((b, (pos - stable.block_range(b).0) as usize))
        } else {
            return Err(ColumnarError::OutOfRange {
                what: "row",
                index: pos,
                len: stable.row_count(),
            });
        };
        for (j, &c) in cols.iter().enumerate() {
            let v = match (cells[j].take(), at) {
                (Some(v), _) => v,
                (None, Some((b, off))) => {
                    if loaded[j] != Some(b) {
                        stable.read_block_into(c, b, io, &mut bufs[j])?;
                        loaded[j] = Some(b);
                        if last_block != Some(b) {
                            last_block = Some(b);
                            blocks += 1;
                        }
                    }
                    if off >= bufs[j].len() {
                        return Err(ColumnarError::Corrupt(format!(
                            "block {b} of column {c} decoded to {} rows, row {off} wanted",
                            bufs[j].len()
                        )));
                    }
                    bufs[j].get(off)
                }
                (None, None) => {
                    return Err(ColumnarError::Corrupt(format!(
                        "pending insert at rid {rid} carries no value for column {c}"
                    )))
                }
            };
            out[j].push_owned(v);
        }
    }
    clock.charge(t0);
    Ok(blocks)
}

/// The by-key arm: the rows at `rids` (ascending, partition-local) picked
/// out of a rid-clamped merge scan.
fn by_scan(
    mut scan: TableScan<'_>,
    rids: impl Iterator<Item = u64>,
    out: &mut [ColumnVec],
) -> Result<u64, ColumnarError> {
    let mut rids = rids.peekable();
    let first = rids.peek().copied().unwrap_or(0);
    // the window's far edge is the scan's end: it stops once the last
    // requested row is out
    scan.clamp_rids(first, u64::MAX);
    while rids.peek().is_some() {
        let Some(b) = scan.next_batch() else { break };
        let end = b.rid_start + b.num_rows() as u64;
        let mut idx = Vec::new();
        while let Some(r) = rids.next_if(|&r| r < end) {
            idx.push((r - b.rid_start) as usize);
        }
        for (o, c) in out.iter_mut().zip(&b.cols) {
            o.extend_gather(c, &idx);
        }
    }
    match rids.next() {
        None => Ok(scan.counts().blocks_decoded),
        Some(r) => Err(ColumnarError::Corrupt(format!(
            "merge scan ended before rid {r}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::run_to_rows;
    use columnar::{Schema, TableMeta, TableOptions, Tuple, ValueType};
    use vdt::Vdt;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("k", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Str),
        ])
    }

    fn rows(from: i64, n: i64) -> Vec<Tuple> {
        (from..from + n)
            .map(|i| {
                vec![
                    Value::Int(i * 10),
                    Value::Int(i),
                    Value::Str(format!("r{i}")),
                ]
            })
            .collect()
    }

    fn table(from: i64, n: i64) -> StableTable {
        let opts = TableOptions {
            block_rows: 4,
            compressed: true,
        };
        StableTable::bulk_load(TableMeta::new("t", schema(), vec![0]), opts, &rows(from, n))
            .unwrap()
    }

    /// Two stacked layers over 20 rows: the upper one modifies a lower
    /// insert, re-modifies a lower modify, deletes and inserts.
    fn stack() -> (Pdt, Pdt) {
        let mut lower = Pdt::new(schema(), vec![0]);
        lower.add_insert(
            0,
            0,
            &[Value::Int(-5), Value::Int(99), Value::Str("new".into())],
        );
        lower.add_delete(3, &[Value::Int(20)]);
        lower.add_modify(5, 1, &Value::Int(-4));
        lower.add_insert(
            20,
            20,
            &[Value::Int(999), Value::Int(0), Value::Str("tail".into())],
        );
        let mut upper = Pdt::new(schema(), vec![0]);
        upper.add_modify(0, 2, &Value::Str("upper".into())); // of the lower insert
        upper.add_modify(5, 1, &Value::Int(-8)); // over the lower modify
        upper.add_delete(9, &[Value::Int(90)]);
        upper.add_insert(
            12,
            11,
            &[Value::Int(125), Value::Int(5), Value::Str("u".into())],
        );
        (lower, upper)
    }

    fn seg<'a>(
        stable: &'a StableTable,
        layers: DeltaLayers<'a>,
        rid_base: u64,
        io: &IoTracker,
    ) -> ScanSegment<'a> {
        ScanSegment {
            stable,
            layers,
            rid_base,
            io: io.clone(),
        }
    }

    fn scan_image(stable: &StableTable, layers: DeltaLayers<'_>, cols: &[usize]) -> Vec<Tuple> {
        let (io, clock) = (IoTracker::new(), ScanClock::new());
        run_to_rows(&mut TableScan::new(
            stable,
            layers,
            cols.to_vec(),
            io,
            clock,
        ))
    }

    #[test]
    fn stacked_layers_gather_what_the_scan_emits() {
        let t = table(0, 20);
        let (lower, upper) = stack();
        let cols = [2, 0, 1];
        let image = scan_image(&t, DeltaLayers::Pdt(vec![&lower, &upper]), &cols);
        let rids: Vec<u64> = (0..image.len() as u64).collect();
        for pick in [rids.clone(), vec![0, 5, 11], vec![20], vec![4, 9, 10, 19]] {
            let got = gather_rows(
                vec![seg(
                    &t,
                    DeltaLayers::Pdt(vec![&lower, &upper]),
                    0,
                    &IoTracker::new(),
                )],
                &pick,
                &cols,
                &ScanClock::new(),
            )
            .unwrap();
            let want: Vec<Tuple> = pick.iter().map(|&r| image[r as usize].clone()).collect();
            assert_eq!(got.rows.rows(), want, "rids {pick:?}");
        }
    }

    #[test]
    fn decodes_only_touched_blocks_of_requested_columns() {
        let t = table(0, 20);
        let (lower, upper) = stack();
        let io = IoTracker::new();
        let layers = || DeltaLayers::Pdt(vec![&lower, &upper]);
        // rid 0 is an insert, rid 5 a stable row of block 1, rid 18 of block 4
        let got = gather_rows(
            vec![seg(&t, layers(), 0, &io)],
            &[0, 5, 18],
            &[0],
            &ScanClock::new(),
        )
        .unwrap();
        assert_eq!(got.blocks_decoded, 2);
        assert_eq!(io.stats().blocks_read, 2);
        let key_bytes = |b: usize| t.column_blocks(0)[b].stored_bytes();
        assert_eq!(io.stats().bytes_read, key_bytes(1) + key_bytes(4));
        // a column the stack answers in full costs no block at all
        let io = IoTracker::new();
        let got = gather_rows(
            vec![seg(&t, layers(), 0, &io)],
            &[0, 5],
            &[1],
            &ScanClock::new(),
        )
        .unwrap();
        assert_eq!(
            got.rows.rows(),
            vec![vec![Value::Int(99)], vec![Value::Int(-8)]]
        );
        assert_eq!((got.blocks_decoded, io.stats().blocks_read), (0, 0));
        // no column asked: positions are checked, nothing is read
        let got = gather_rows(
            vec![seg(&t, layers(), 0, &io)],
            &[3],
            &[],
            &ScanClock::new(),
        )
        .unwrap();
        assert_eq!((got.rows.num_cols(), io.stats().blocks_read), (0, 0));
    }

    #[test]
    fn segments_split_rids_and_by_key_layers_merge_their_window() {
        let (t0, t1) = (table(0, 8), table(100, 8));
        let mut v = Vdt::new(schema(), vec![0]);
        v.insert(vec![
            Value::Int(1005),
            Value::Int(1),
            Value::Str("v".into()),
        ]);
        v.delete(&[Value::Int(1020)]);
        let mut p = Pdt::new(schema(), vec![0]);
        p.add_delete(2, &[Value::Int(20)]);
        let cols = [0, 2];
        // partition 0: 8 − 1 rows by position; partition 1: 8 + 1 − 1 by key
        let segs = |io: &IoTracker| {
            vec![
                seg(&t0, DeltaLayers::Pdt(vec![&p]), 0, io),
                seg(&t1, DeltaLayers::Vdt(&v), 7, io),
            ]
        };
        let mut image = scan_image(&t0, DeltaLayers::Pdt(vec![&p]), &cols);
        image.extend(scan_image(&t1, DeltaLayers::Vdt(&v), &cols));
        assert_eq!(image.len(), 15);
        for pick in [vec![6, 7], vec![0, 2, 8, 9, 14], (0..15).collect()] {
            let got =
                gather_rows(segs(&IoTracker::new()), &pick, &cols, &ScanClock::new()).unwrap();
            let want: Vec<Tuple> = pick.iter().map(|&r| image[r as usize].clone()).collect();
            assert_eq!(got.rows.rows(), want, "rids {pick:?}");
        }
        // the by-key arm reads its partition from the first block, the
        // sort key included; the positional one only the victim's block
        let io = IoTracker::new();
        let got = gather_rows(segs(&io), &[1, 14], &[2], &ScanClock::new()).unwrap();
        assert_eq!(got.blocks_decoded, 1 + 2);
        assert_eq!(io.stats().blocks_read, 1 + 2 * 2);
        // past the last visible row: refused before any block is read
        let io = IoTracker::new();
        let err = gather_rows(segs(&io), &[3, 15], &cols, &ScanClock::new());
        assert!(matches!(
            err,
            Err(ColumnarError::OutOfRange {
                what: "rid",
                index: 15,
                len: 15
            })
        ));
        assert_eq!(io.stats().blocks_read, 0);
    }
}
