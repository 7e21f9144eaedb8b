//! The stable table: an immutable, sort-key-ordered, block-compressed
//! columnar image (TABLE0 in the paper's notation).
//!
//! All mutation happens in differential structures (PDT/VDT) layered on
//! top; a checkpoint materialises a *new* `StableTable` (the paper's
//! "Checkpointing" paragraph) rather than updating in place.

use crate::block::{Block, Encoding};
use crate::column::ColumnVec;
use crate::dict::StrDict;
use crate::error::{ColumnarError, Result};
use crate::io::IoTracker;
use crate::schema::{Schema, SortKeyDef};
use crate::sparse::SparseIndex;
use crate::value::{SkKey, Tuple, Value, ValueType};
use std::cmp::Ordering;
use std::sync::Arc;

/// Identity of a table: name, schema, physical sort order.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table name (unique within a database).
    pub name: String,
    /// Column names and types.
    pub schema: Schema,
    /// The physical sort order (indices of the sort-key columns).
    pub sort_key: SortKeyDef,
}

impl TableMeta {
    /// Bundle a name, schema and sort-key column list.
    pub fn new(name: impl Into<String>, schema: Schema, sort_key: Vec<usize>) -> Self {
        TableMeta {
            name: name.into(),
            schema,
            sort_key: SortKeyDef::new(sort_key),
        }
    }
}

/// Physical layout knobs.
#[derive(Debug, Clone, Copy)]
pub struct TableOptions {
    /// Rows per block (the scan/merge granularity). Default 4096.
    pub block_rows: usize,
    /// Whether to apply lightweight compression (paper: server runs
    /// compressed, workstation runs non-compressed).
    pub compressed: bool,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            block_rows: 4096,
            compressed: true,
        }
    }
}

/// A half-open SID range `[start, end)` to scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanRange {
    /// First stable ID of the range.
    pub start: u64,
    /// One past the last stable ID of the range.
    pub end: u64,
}

impl ScanRange {
    /// The full-table range `[0, row_count)`.
    pub fn all(row_count: u64) -> Self {
        ScanRange {
            start: 0,
            end: row_count,
        }
    }

    /// Number of stable IDs covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the range covers nothing.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// The stable (read-store) image of a table.
#[derive(Debug, Clone)]
pub struct StableTable {
    meta: TableMeta,
    opts: TableOptions,
    row_count: u64,
    /// `cols[c]` = encoded blocks of column `c`; block `b` of every column
    /// covers the same row range.
    cols: Vec<Arc<Vec<Block>>>,
    /// `starts[b]` = SID of the first row of block `b`. Bulk-loaded tables
    /// are fixed-stride (`b * block_rows`); a range splice
    /// ([`TableBuilder::splice`]) keeps unchanged blocks as-is, so a
    /// spliced table's blocks may be shorter than `block_rows` mid-table.
    starts: Vec<u64>,
    sparse: SparseIndex,
    /// `block_max_sk[b]` = sort key of the last tuple of block `b` (the
    /// block maximum; the minimum is the sparse index's first key). Together
    /// they form per-block min/max metadata for block skipping.
    block_max_sk: Vec<SkKey>,
    /// `dicts[c]` = the table-global string dictionary of column `c`, if it
    /// is dictionary-coded ([`Encoding::GlobalCode`] blocks). Shared with
    /// every decoded [`ColumnVec::Coded`] of the column.
    dicts: Vec<Option<Arc<StrDict>>>,
}

impl StableTable {
    /// Bulk-load from rows that are *already sorted* on the sort key.
    /// Returns an error on schema mismatch or unsorted input.
    pub fn bulk_load(meta: TableMeta, opts: TableOptions, rows: &[Tuple]) -> Result<StableTable> {
        let mut b = TableBuilder::new(meta, opts);
        for row in rows {
            b.append(row)?;
        }
        b.finish()
    }

    /// Bulk-load from unsorted rows: sorts by the sort key first.
    pub fn bulk_load_unsorted(
        meta: TableMeta,
        opts: TableOptions,
        mut rows: Vec<Tuple>,
    ) -> Result<StableTable> {
        let sk = meta.sort_key.clone();
        rows.sort_by(|a, b| sk.cmp_tuples(a, b));
        Self::bulk_load(meta, opts, &rows)
    }

    /// Reassemble a table from already-encoded parts (persisted-image
    /// loading). `cols[c]` holds column `c`'s blocks in sort-key order;
    /// `block_min_sk`/`block_max_sk` hold each block's first/last sort key.
    /// The shape is validated (untrusted on-disk input) but block payloads
    /// are not decoded here — corruption inside a payload surfaces as
    /// [`ColumnarError::Corrupt`] on first read.
    pub fn from_parts(
        meta: TableMeta,
        opts: TableOptions,
        row_count: u64,
        cols: Vec<Vec<Block>>,
        block_min_sk: Vec<SkKey>,
        block_max_sk: Vec<SkKey>,
        dicts: Vec<Option<Arc<StrDict>>>,
    ) -> Result<StableTable> {
        if opts.block_rows == 0 {
            return Err(ColumnarError::Corrupt("image has block_rows = 0".into()));
        }
        if cols.len() != meta.schema.len() {
            return Err(ColumnarError::SchemaMismatch(format!(
                "image has {} columns, schema of {} has {}",
                cols.len(),
                meta.name,
                meta.schema.len()
            )));
        }
        if dicts.len() != cols.len() {
            return Err(ColumnarError::Corrupt(format!(
                "image has {} dictionaries for {} columns",
                dicts.len(),
                cols.len()
            )));
        }
        // Block boundaries come from the per-block lengths themselves:
        // a freshly built image is fixed-stride, but a range-compacted one
        // may carry shorter blocks mid-table (see `TableBuilder::splice`).
        let nblocks = cols.first().map(|c| c.len()).unwrap_or(0);
        for (c, col) in cols.iter().enumerate() {
            if col.len() != nblocks {
                return Err(ColumnarError::Corrupt(format!(
                    "image column {c} has {} blocks, expected {nblocks}",
                    col.len()
                )));
            }
            for (b, blk) in col.iter().enumerate() {
                if blk.len != cols[0][b].len {
                    return Err(ColumnarError::Corrupt(format!(
                        "image column {c} block {b} has {} rows, column 0 has {}",
                        blk.len, cols[0][b].len
                    )));
                }
            }
            // global-code payloads are meaningless without their dictionary
            if dicts[c].is_none() && col.iter().any(|b| b.encoding == Encoding::GlobalCode) {
                return Err(ColumnarError::Corrupt(format!(
                    "image column {c} has global-code blocks but no dictionary"
                )));
            }
            if dicts[c].is_some() && meta.schema.fields()[c].vtype != ValueType::Str {
                return Err(ColumnarError::Corrupt(format!(
                    "image column {c} has a dictionary but is not a string column"
                )));
            }
        }
        let mut starts = Vec::with_capacity(nblocks);
        let mut acc = 0u64;
        for (b, blk) in cols.first().into_iter().flatten().enumerate() {
            let len = blk.len;
            if len == 0 || len > opts.block_rows {
                return Err(ColumnarError::Corrupt(format!(
                    "image block {b} has {len} rows (block_rows {})",
                    opts.block_rows
                )));
            }
            starts.push(acc);
            acc += len as u64;
        }
        if acc != row_count {
            return Err(ColumnarError::Corrupt(format!(
                "image blocks hold {acc} rows, header says {row_count}"
            )));
        }
        if block_min_sk.len() != nblocks || block_max_sk.len() != nblocks {
            return Err(ColumnarError::Corrupt(format!(
                "image has {}/{} block key bounds, expected {nblocks}",
                block_min_sk.len(),
                block_max_sk.len()
            )));
        }
        let sparse = SparseIndex::new(block_min_sk, starts.clone(), row_count);
        Ok(StableTable {
            meta,
            opts,
            row_count,
            cols: cols.into_iter().map(Arc::new).collect(),
            starts,
            sparse,
            block_max_sk,
            dicts,
        })
    }

    /// The table's identity (name, schema, sort order).
    pub fn meta(&self) -> &TableMeta {
        &self.meta
    }

    /// Column names and types.
    pub fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    /// The physical sort order.
    pub fn sort_key(&self) -> &SortKeyDef {
        &self.meta.sort_key
    }

    /// Physical layout knobs this table was built with.
    pub fn options(&self) -> TableOptions {
        self.opts
    }

    /// Number of stable rows.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.meta.schema.len()
    }

    /// Rows per block.
    pub fn block_rows(&self) -> usize {
        self.opts.block_rows
    }

    /// Number of blocks per column.
    pub fn num_blocks(&self) -> usize {
        self.cols.first().map(|c| c.len()).unwrap_or(0)
    }

    /// The sparse min-key index over block boundaries.
    pub fn sparse_index(&self) -> &SparseIndex {
        &self.sparse
    }

    /// The global string dictionary of column `c`, if it is
    /// dictionary-coded (see [`StrDict`]). Decoded blocks of such a column
    /// are [`ColumnVec::Coded`] over this dictionary.
    pub fn column_dict(&self, c: usize) -> Option<&Arc<StrDict>> {
        self.dicts.get(c).and_then(|d| d.as_ref())
    }

    /// Per-column dictionaries (`None` for non-coded columns), in schema
    /// order — image serialization reads these.
    pub fn dicts(&self) -> &[Option<Arc<StrDict>>] {
        &self.dicts
    }

    /// Row range `[start, end)` covered by block `b`.
    pub fn block_range(&self, b: usize) -> (u64, u64) {
        let start = self.starts.get(b).copied().unwrap_or(self.row_count);
        let end = self.starts.get(b + 1).copied().unwrap_or(self.row_count);
        (start, end)
    }

    /// Index of the block containing `sid`.
    pub fn block_of(&self, sid: u64) -> usize {
        self.starts.partition_point(|&s| s <= sid).saturating_sub(1)
    }

    /// SID of the first row of each block (ascending; `starts[0] == 0`).
    pub fn block_starts(&self) -> &[u64] {
        &self.starts
    }

    /// Decode block `b` of column `c`, charging its stored bytes to `io`.
    pub fn read_block(&self, c: usize, b: usize, io: &IoTracker) -> Result<ColumnVec> {
        // any empty column will do: decoding replaces a mismatched buffer
        let mut out = ColumnVec::new(ValueType::Bool);
        self.read_block_into(c, b, io, &mut out)?;
        Ok(out)
    }

    /// [`StableTable::read_block`] into a caller-held column, reusing its
    /// allocation when the representation matches — a scan decodes block
    /// after block of a column into one buffer.
    pub fn read_block_into(
        &self,
        c: usize,
        b: usize,
        io: &IoTracker,
        out: &mut ColumnVec,
    ) -> Result<()> {
        let col = self.cols.get(c).ok_or(ColumnarError::OutOfRange {
            what: "column",
            index: c as u64,
            len: self.cols.len() as u64,
        })?;
        let blk = col.get(b).ok_or(ColumnarError::OutOfRange {
            what: "block",
            index: b as u64,
            len: col.len() as u64,
        })?;
        io.record_block_at(b, blk.stored_bytes());
        blk.decode_into(self.column_dict(c), out)
    }

    /// Fetch a single row by SID (point access for DML/tests; charges the
    /// I/O of each column's containing block).
    pub fn get_row(&self, sid: u64, io: &IoTracker) -> Result<Tuple> {
        if sid >= self.row_count {
            return Err(ColumnarError::OutOfRange {
                what: "row",
                index: sid,
                len: self.row_count,
            });
        }
        let b = self.block_of(sid);
        let off = (sid - self.block_range(b).0) as usize;
        let mut out = Vec::with_capacity(self.num_columns());
        for c in 0..self.num_columns() {
            let col = self.read_block(c, b, io)?;
            out.push(col.get(off));
        }
        Ok(out)
    }

    /// Sort-key values of the row at `sid`.
    pub fn sk_of_row(&self, sid: u64, io: &IoTracker) -> Result<Vec<Value>> {
        let b = self.block_of(sid);
        let off = (sid - self.block_range(b).0) as usize;
        let mut out = Vec::with_capacity(self.meta.sort_key.len());
        for &c in self.meta.sort_key.cols() {
            let col = self.read_block(c, b, io)?;
            out.push(col.get(off));
        }
        Ok(out)
    }

    /// Conservative SID range for a sort-key (prefix) range predicate, via
    /// the sparse index.
    pub fn sid_range(&self, lo: Option<&[Value]>, hi: Option<&[Value]>) -> ScanRange {
        let (start, end) = self.sparse.sid_range(lo, hi);
        ScanRange { start, end }
    }

    /// Min/max sort keys of block `b` (the block-level zone map).
    pub fn block_sk_bounds(&self, b: usize) -> (&[Value], &[Value]) {
        (
            &self.sparse.first_keys()[b],
            self.block_max_sk.get(b).map_or(&[], |k| k.as_slice()),
        )
    }

    /// Tight block range `[lo_block, hi_block)` whose per-block min/max sort
    /// keys intersect the inclusive prefix range `[lo, hi]`.
    ///
    /// Unlike [`StableTable::sid_range`] (which stays conservative so that
    /// positionally patched scans never lose ghost-relative inserts), this
    /// is *exact* on the stable image: a block outside the returned range
    /// contains no stable row matching the predicate. Only clean scans — no
    /// differential layer — may use it to skip decoding blocks.
    pub fn block_range_for(&self, lo: Option<&[Value]>, hi: Option<&[Value]>) -> (usize, usize) {
        let n = self.num_blocks();
        if self.block_max_sk.len() != n {
            // No max metadata (shouldn't happen for built tables): no skipping.
            return (0, n);
        }
        // both arrays are sorted (blocks are in key order): binary-search
        // block max < lo ⇒ every row in the block is below the range
        let start = lo.map_or(0, |lo| {
            self.block_max_sk
                .partition_point(|k| cmp_prefix(k, lo) == Ordering::Less)
        });
        // block min > hi ⇒ every row in the block is above the range
        let end = hi.map_or(n, |hi| {
            self.sparse
                .first_keys()
                .partition_point(|k| cmp_prefix(k, hi) != Ordering::Greater)
                .max(start)
        });
        (start, end)
    }

    /// Encoded blocks of column `c`, without decoding (image serialization).
    pub fn column_blocks(&self, c: usize) -> &[Block] {
        &self.cols[c]
    }

    /// Per-block last sort keys (block maxima; see
    /// [`StableTable::block_sk_bounds`]).
    pub fn block_max_keys(&self) -> &[SkKey] {
        &self.block_max_sk
    }

    /// Total stored bytes of the given column.
    pub fn column_bytes(&self, c: usize) -> u64 {
        self.cols[c].iter().map(|b| b.stored_bytes()).sum()
    }

    /// Total stored bytes of the whole table.
    pub fn total_bytes(&self) -> u64 {
        (0..self.num_columns()).map(|c| self.column_bytes(c)).sum()
    }

    /// Materialise every row (tests / checkpointing).
    pub fn scan_all(&self, io: &IoTracker) -> Result<Vec<Tuple>> {
        let mut rows = Vec::with_capacity(self.row_count as usize);
        for b in 0..self.num_blocks() {
            let cols: Vec<ColumnVec> = (0..self.num_columns())
                .map(|c| self.read_block(c, b, io))
                .collect::<Result<_>>()?;
            let n = cols.first().map(|c| c.len()).unwrap_or(0);
            for i in 0..n {
                rows.push(cols.iter().map(|c| c.get(i)).collect());
            }
        }
        Ok(rows)
    }

    /// Binary-search the first SID whose sort key is `>=`/`>` the given key
    /// (used by DML insert positioning). `strict` selects `>` semantics.
    /// Costs real block I/O, charged to `io`.
    pub fn lower_bound_sk(&self, key: &[Value], strict: bool, io: &IoTracker) -> Result<u64> {
        let mut lo = 0u64;
        let mut hi = self.row_count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let sk = self.sk_of_row(mid, io)?;
            let ord = cmp_prefix(&sk, key);
            let go_right = match ord {
                Ordering::Less => true,
                Ordering::Equal => strict,
                Ordering::Greater => false,
            };
            if go_right {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Build a new table keeping blocks `[0, b0)` and `[b1, num_blocks)`
    /// as-is (encoded payloads shared, nothing re-encoded) and replacing
    /// blocks `[b0, b1)` with the rows of `merged` — one column per schema
    /// column, equal lengths, sorted on the sort key, fitting between the
    /// kept neighbours' key bounds. One-shot form of
    /// [`TableBuilder::splice`], which documents the resulting geometry
    /// and string encodings.
    pub fn splice_blocks(&self, b0: usize, b1: usize, merged: &[ColumnVec]) -> Result<StableTable> {
        let mut b = TableBuilder::splice(self, b0, b1)?;
        b.append_cols(merged)?;
        b.finish()
    }
}

fn cmp_prefix(stored: &[Value], key: &[Value]) -> Ordering {
    for (s, k) in stored.iter().zip(key.iter()) {
        match s.cmp(k) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// Streaming bulk loader producing a [`StableTable`].
///
/// String columns of compressed tables are **dictionary-coded**: their raw
/// blocks are buffered during the load, a table-global order-preserving
/// [`StrDict`] is built in [`TableBuilder::finish`], and every block is then
/// written as [`Encoding::GlobalCode`] `u32` codes.
///
/// A builder started with [`TableBuilder::splice`] rewrites only a block
/// range of an existing table: it is seeded with the kept prefix blocks,
/// fed the replacement rows like any load, and `finish` appends the kept
/// suffix blocks.
pub struct TableBuilder {
    meta: TableMeta,
    opts: TableOptions,
    buf: Vec<ColumnVec>,
    blocks: Vec<Vec<Block>>,
    /// `dict_col[c]`: column `c` is a string column headed for global
    /// dictionary coding; its raw blocks collect in `pending[c]` until
    /// `finish` knows the full string universe.
    dict_col: Vec<bool>,
    pending: Vec<Vec<ColumnVec>>,
    /// `dicts[c]`: the dictionary a splice's kept blocks of column `c` are
    /// coded against. Rows that stay within it are written as
    /// [`Encoding::GlobalCode`]; a block receiving a string outside it
    /// falls back to a per-block encoding.
    dicts: Vec<Option<Arc<StrDict>>>,
    /// Kept suffix of a splice (blocks, first keys, last keys), appended
    /// by `finish` at whatever SID the replacement rows end.
    suffix: Vec<Vec<Block>>,
    suffix_mins: Vec<SkKey>,
    suffix_maxs: Vec<SkKey>,
    sparse_keys: Vec<Vec<Value>>,
    sparse_sids: Vec<u64>,
    block_max_keys: Vec<SkKey>,
    row_count: u64,
    last_sk: Option<Vec<Value>>,
}

impl TableBuilder {
    /// Start a load for the given identity and layout.
    pub fn new(meta: TableMeta, opts: TableOptions) -> Self {
        assert!(opts.block_rows > 0, "block_rows must be positive");
        let dict_col: Vec<bool> = meta
            .schema
            .fields()
            .iter()
            .map(|f| opts.compressed && f.vtype == ValueType::Str)
            .collect();
        let ncols = meta.schema.len();
        let mut b = TableBuilder {
            meta,
            opts,
            buf: Vec::new(),
            blocks: vec![Vec::new(); ncols],
            dict_col,
            pending: vec![Vec::new(); ncols],
            dicts: vec![None; ncols],
            suffix: vec![Vec::new(); ncols],
            suffix_mins: Vec::new(),
            suffix_maxs: Vec::new(),
            sparse_keys: Vec::new(),
            sparse_sids: Vec::new(),
            block_max_keys: Vec::new(),
            row_count: 0,
            last_sk: None,
        };
        b.reset_bufs();
        b
    }

    /// Start a load that replaces blocks `[b0, b1)` of `base` and keeps
    /// every other block as-is (encoded payloads shared, nothing
    /// re-encoded). The replacement rows may change the range's row
    /// count, so kept suffix blocks shift to new SIDs and the result is
    /// variable-stride (see [`StableTable::block_starts`]).
    ///
    /// While any block is kept, the table's string dictionaries stay:
    /// replacement rows within them are coded against them, and a block
    /// receiving a string outside its dictionary falls back to a per-block
    /// encoding (both kinds coexist in one column). A range covering the
    /// whole table keeps nothing, so it is a plain fresh load — global
    /// dictionaries rebuilt against the new image included.
    pub fn splice(base: &StableTable, b0: usize, b1: usize) -> Result<Self> {
        let nblocks = base.num_blocks();
        if b0 > b1 || b1 > nblocks {
            return Err(ColumnarError::OutOfRange {
                what: "splice block range",
                index: b1 as u64,
                len: nblocks as u64,
            });
        }
        let mut b = TableBuilder::new(base.meta.clone(), base.opts);
        if b0 == 0 && b1 == nblocks {
            return Ok(b);
        }
        b.dict_col.fill(false);
        b.dicts = base.dicts.clone();
        b.reset_bufs();
        for (c, col) in base.cols.iter().enumerate() {
            b.blocks[c] = col[..b0].to_vec();
            b.suffix[c] = col[b1..].to_vec();
        }
        let firsts = base.sparse.first_keys();
        b.sparse_keys = firsts[..b0].to_vec();
        b.sparse_sids = base.starts[..b0].to_vec();
        b.block_max_keys = base.block_max_sk[..b0].to_vec();
        b.suffix_mins = firsts[b1..].to_vec();
        b.suffix_maxs = base.block_max_sk[b1..].to_vec();
        b.row_count = base.block_range(b0).0;
        b.last_sk = b.block_max_keys.last().cloned();
        Ok(b)
    }

    /// (Re)create the per-column block buffers: coded over the kept
    /// dictionary where there is one, plainly typed otherwise.
    fn reset_bufs(&mut self) {
        self.buf = self
            .meta
            .schema
            .fields()
            .iter()
            .zip(&self.dicts)
            .map(|(f, dict)| match dict {
                Some(d) => ColumnVec::new_coded(d.clone()),
                None => ColumnVec::with_capacity(f.vtype, self.opts.block_rows),
            })
            .collect();
    }

    /// Append one row; must arrive in (non-strict) sort-key order.
    pub fn append(&mut self, row: &[Value]) -> Result<()> {
        if !self.meta.schema.validate(row) {
            return Err(ColumnarError::SchemaMismatch(format!(
                "row {:?} does not match schema of {}",
                row, self.meta.name
            )));
        }
        let sk = self.meta.sort_key.extract(row);
        if let Some(prev) = &self.last_sk {
            if prev.as_slice() > sk.as_slice() {
                return Err(ColumnarError::UnsortedInput {
                    row: self.row_count,
                });
            }
        }
        if self.buf[0].is_empty() {
            self.sparse_keys.push(sk.clone());
            self.sparse_sids.push(self.row_count);
        }
        self.last_sk = Some(sk);
        for (c, v) in row.iter().enumerate() {
            self.buf[c].push(v);
        }
        self.row_count += 1;
        if self.buf[0].len() == self.opts.block_rows {
            self.flush_block();
        }
        Ok(())
    }

    /// Append already-sorted columns (one [`ColumnVec`] per schema column,
    /// equal lengths). This is the vectorized twin of [`TableBuilder::append`]:
    /// values move block-at-a-time through typed `extend_range` copies, sort
    /// order is validated with native cell comparisons, and no row tuple is
    /// ever materialized. The kernelized checkpoint merge feeds its merged
    /// columns straight through here.
    pub fn append_cols(&mut self, cols: &[ColumnVec]) -> Result<()> {
        if cols.len() != self.meta.schema.len() {
            return Err(ColumnarError::SchemaMismatch(format!(
                "{} columns appended, schema of {} has {}",
                cols.len(),
                self.meta.name,
                self.meta.schema.len()
            )));
        }
        let n = cols.first().map(|c| c.len()).unwrap_or(0);
        for (c, col) in cols.iter().enumerate() {
            if col.len() != n || col.vtype() != self.meta.schema.fields()[c].vtype {
                return Err(ColumnarError::SchemaMismatch(format!(
                    "column {c} is {:?}×{} — expected {:?}×{n}",
                    col.vtype(),
                    col.len(),
                    self.meta.schema.fields()[c].vtype
                )));
            }
        }
        if n == 0 {
            return Ok(());
        }
        let sk_cols: Vec<usize> = self.meta.sort_key.cols().to_vec();
        let sk_of = |i: usize| -> Vec<Value> { sk_cols.iter().map(|&c| cols[c].get(i)).collect() };
        // order check: batch-internal, native comparisons (no Value allocs)
        for i in 1..n {
            for (rank, &c) in sk_cols.iter().enumerate() {
                match cols[c].cmp_cells(i - 1, &cols[c], i) {
                    Ordering::Less => break,
                    Ordering::Equal if rank + 1 < sk_cols.len() => continue,
                    Ordering::Equal => break,
                    Ordering::Greater => {
                        return Err(ColumnarError::UnsortedInput {
                            row: self.row_count + i as u64,
                        })
                    }
                }
            }
        }
        // order check: batch head against what is already loaded
        if let Some(prev) = &self.last_sk {
            if cmp_prefix(prev, &sk_of(0)) == Ordering::Greater {
                return Err(ColumnarError::UnsortedInput {
                    row: self.row_count,
                });
            }
        }
        let mut done = 0usize;
        while done < n {
            if self.buf[0].is_empty() {
                self.sparse_keys.push(sk_of(done));
                self.sparse_sids.push(self.row_count);
            }
            let take = (self.opts.block_rows - self.buf[0].len()).min(n - done);
            for (c, col) in cols.iter().enumerate() {
                self.buf[c].extend_range(col, done, done + take);
            }
            done += take;
            self.row_count += take as u64;
            self.last_sk = Some(sk_of(done - 1));
            if self.buf[0].len() == self.opts.block_rows {
                self.flush_block();
            }
        }
        Ok(())
    }

    fn flush_block(&mut self) {
        if self.buf.first().is_some_and(|c| !c.is_empty()) {
            // The buffered rows arrive in sort order, so the last appended
            // sort key is this block's maximum.
            self.block_max_keys
                .push(self.last_sk.clone().unwrap_or_default());
        }
        for (c, col) in self.buf.iter_mut().enumerate() {
            if col.is_empty() {
                continue;
            }
            if self.dict_col[c] {
                // defer: the global dictionary is only known at finish()
                let raw = std::mem::replace(
                    col,
                    ColumnVec::with_capacity(ValueType::Str, self.opts.block_rows),
                );
                self.pending[c].push(raw);
            } else if col.dict().is_some() {
                // still coded over the kept dictionary of a splice
                self.blocks[c].push(Block::encode_coded(col));
                col.clear();
            } else {
                self.blocks[c].push(Block::encode(col, self.opts.compressed));
                match &self.dicts[c] {
                    // a string outside the kept dictionary materialized
                    // this block; the next one starts coded again
                    Some(d) => *col = ColumnVec::new_coded(d.clone()),
                    None => col.clear(),
                }
            }
        }
    }

    /// Finish the load and produce the immutable table. String columns of
    /// compressed tables get their global dictionary built here and their
    /// blocks encoded as [`Encoding::GlobalCode`]; a splice appends its
    /// kept suffix blocks (rejecting replacement rows that sort past them).
    pub fn finish(mut self) -> Result<StableTable> {
        if !self.buf[0].is_empty() || self.meta.schema.is_empty() {
            self.flush_block();
        }
        for c in 0..self.meta.schema.len() {
            if !self.dict_col[c] {
                continue;
            }
            let dict = StrDict::build(
                self.pending[c]
                    .iter()
                    .flat_map(|b| (0..b.len()).map(move |i| b.str_at(i))),
            );
            for raw in &self.pending[c] {
                let codes: Vec<u32> = (0..raw.len())
                    .map(|i| dict.code_of(raw.str_at(i)).expect("dict built from column"))
                    .collect();
                self.blocks[c].push(Block::encode_coded(&ColumnVec::Coded(codes, dict.clone())));
            }
            self.dicts[c] = Some(dict);
        }
        if let (Some(prev), Some(next)) = (&self.last_sk, self.suffix_mins.first()) {
            if cmp_prefix(prev, next) == Ordering::Greater {
                return Err(ColumnarError::UnsortedInput {
                    row: self.row_count,
                });
            }
        }
        for (j, (min, max)) in self
            .suffix_mins
            .into_iter()
            .zip(self.suffix_maxs)
            .enumerate()
        {
            self.sparse_keys.push(min);
            self.sparse_sids.push(self.row_count);
            self.block_max_keys.push(max);
            self.row_count += self.suffix[0][j].len as u64;
        }
        for (col, suffix) in self.blocks.iter_mut().zip(self.suffix) {
            col.extend(suffix);
        }
        let starts = self.sparse_sids.clone();
        let sparse = SparseIndex::new(self.sparse_keys, self.sparse_sids, self.row_count);
        Ok(StableTable {
            meta: self.meta,
            opts: self.opts,
            row_count: self.row_count,
            cols: self.blocks.into_iter().map(Arc::new).collect(),
            starts,
            sparse,
            block_max_sk: self.block_max_keys,
            dicts: self.dicts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    fn inventory_meta() -> TableMeta {
        TableMeta::new(
            "inventory",
            Schema::from_pairs(&[
                ("store", ValueType::Str),
                ("prod", ValueType::Str),
                ("new", ValueType::Bool),
                ("qty", ValueType::Int),
            ]),
            vec![0, 1],
        )
    }

    fn inventory_rows() -> Vec<Tuple> {
        [
            ("London", "chair", false, 30i64),
            ("London", "stool", false, 10),
            ("London", "table", false, 20),
            ("Paris", "rug", false, 1),
            ("Paris", "stool", false, 5),
        ]
        .iter()
        .map(|(s, p, n, q)| {
            vec![
                Value::from(*s),
                Value::from(*p),
                Value::from(*n),
                Value::from(*q),
            ]
        })
        .collect()
    }

    /// The linear walks `sid_range` / `block_range_for` used before they
    /// became binary searches — the reference the property test holds the
    /// searches to.
    fn linear_ranges(
        t: &StableTable,
        lo: Option<&[Value]>,
        hi: Option<&[Value]>,
    ) -> ((u64, u64), (usize, usize)) {
        let n = t.num_blocks();
        let firsts = t.sparse_index().first_keys();
        let start_of = |b: usize| t.block_range(b).0;
        let sids = if n == 0 {
            (0, t.row_count())
        } else {
            let lo_sid = lo.map_or(0, |lo| {
                let g = (0..n)
                    .find(|&i| cmp_prefix(&firsts[i], lo) != Ordering::Less)
                    .unwrap_or(n);
                start_of(g.saturating_sub(1))
            });
            let hi_sid = hi.map_or(t.row_count(), |hi| {
                (0..n)
                    .find(|&i| cmp_prefix(&firsts[i], hi) == Ordering::Greater)
                    .map_or(t.row_count(), start_of)
            });
            (lo_sid, hi_sid.max(lo_sid))
        };
        let mut start = 0;
        while start < n
            && lo.is_some_and(|lo| cmp_prefix(&t.block_max_sk[start], lo) == Ordering::Less)
        {
            start += 1;
        }
        let mut end = n;
        while end > start
            && hi.is_some_and(|hi| cmp_prefix(&firsts[end - 1], hi) == Ordering::Greater)
        {
            end -= 1;
        }
        (sids, (start, end))
    }

    #[test]
    fn binary_searched_index_matches_the_linear_walk() {
        // compound (a, b) keys with few distinct `a`s and repeated rows, so
        // block first keys repeat — whole keys and, more often, prefixes —
        // across neighbouring blocks; sizes from empty to several blocks
        let meta = TableMeta::new(
            "t",
            Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]),
            vec![0, 1],
        );
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m) as i64
        };
        for case in 0..200 {
            let nrows = [0, 1, 3, 17, 40][case % 5] + next(8) as usize * (case % 5);
            let mut rows: Vec<Tuple> = (0..nrows)
                .map(|_| vec![Value::Int(next(6)), Value::Int(next(5))])
                .collect();
            rows.sort();
            let opts = TableOptions {
                block_rows: 1 + next(5) as usize,
                compressed: case % 2 == 0,
            };
            let t = StableTable::bulk_load(meta.clone(), opts, &rows).unwrap();
            for _ in 0..40 {
                // full keys, one-column prefixes and open ends, reaching
                // below the first and above the last stored key
                let mut bound = || match next(4) {
                    0 => None,
                    1 => Some(vec![Value::Int(next(8) - 1)]),
                    _ => Some(vec![Value::Int(next(8) - 1), Value::Int(next(7) - 1)]),
                };
                let (lo, hi) = (bound(), bound());
                let want = linear_ranges(&t, lo.as_deref(), hi.as_deref());
                let r = t.sid_range(lo.as_deref(), hi.as_deref());
                assert_eq!(
                    (r.start, r.end),
                    want.0,
                    "case {case}: sid_range {lo:?}..{hi:?}"
                );
                assert_eq!(
                    t.block_range_for(lo.as_deref(), hi.as_deref()),
                    want.1,
                    "case {case}: block_range_for {lo:?}..{hi:?}"
                );
            }
        }
    }

    #[test]
    fn bulk_load_and_scan_roundtrip() {
        let rows = inventory_rows();
        let t = StableTable::bulk_load(
            inventory_meta(),
            TableOptions {
                block_rows: 2,
                compressed: true,
            },
            &rows,
        )
        .unwrap();
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.num_blocks(), 3);
        let io = IoTracker::new();
        assert_eq!(t.scan_all(&io).unwrap(), rows);
        assert!(io.stats().bytes_read > 0);
    }

    #[test]
    fn unsorted_input_rejected() {
        let mut rows = inventory_rows();
        rows.swap(0, 3);
        let err = StableTable::bulk_load(inventory_meta(), TableOptions::default(), &rows);
        assert!(matches!(err, Err(ColumnarError::UnsortedInput { .. })));
    }

    #[test]
    fn bulk_load_unsorted_sorts() {
        let mut rows = inventory_rows();
        rows.reverse();
        let t = StableTable::bulk_load_unsorted(inventory_meta(), TableOptions::default(), rows)
            .unwrap();
        let io = IoTracker::new();
        assert_eq!(t.scan_all(&io).unwrap(), inventory_rows());
    }

    #[test]
    fn schema_mismatch_rejected() {
        let rows = vec![vec![Value::Int(1)]];
        let err = StableTable::bulk_load(inventory_meta(), TableOptions::default(), &rows);
        assert!(matches!(err, Err(ColumnarError::SchemaMismatch(_))));
    }

    #[test]
    fn point_access() {
        let t = StableTable::bulk_load(
            inventory_meta(),
            TableOptions {
                block_rows: 2,
                compressed: false,
            },
            &inventory_rows(),
        )
        .unwrap();
        let io = IoTracker::new();
        let row = t.get_row(3, &io).unwrap();
        assert_eq!(row[0], Value::from("Paris"));
        assert_eq!(row[1], Value::from("rug"));
        assert_eq!(
            t.sk_of_row(1, &io).unwrap(),
            vec![Value::from("London"), Value::from("stool")]
        );
        assert!(t.get_row(99, &io).is_err());
    }

    #[test]
    fn io_accounting_per_column() {
        let t = StableTable::bulk_load(
            inventory_meta(),
            TableOptions {
                block_rows: 2,
                compressed: false,
            },
            &inventory_rows(),
        )
        .unwrap();
        let io = IoTracker::new();
        // reading one block of one column charges exactly that block
        t.read_block(3, 0, &io).unwrap();
        assert_eq!(io.stats().blocks_read, 1);
        assert_eq!(io.stats().bytes_read, 2 * 8); // 2 rows × 8-byte ints
    }

    #[test]
    fn lower_bound_sk_semantics() {
        let t = StableTable::bulk_load(
            inventory_meta(),
            TableOptions {
                block_rows: 2,
                compressed: true,
            },
            &inventory_rows(),
        )
        .unwrap();
        let io = IoTracker::new();
        // first SID with SK >= (London, stool) is 1
        let key = vec![Value::from("London"), Value::from("stool")];
        assert_eq!(t.lower_bound_sk(&key, false, &io).unwrap(), 1);
        // strict: first SID with SK > (London, stool) is 2
        assert_eq!(t.lower_bound_sk(&key, true, &io).unwrap(), 2);
        // beyond the end
        let key = vec![Value::from("Zurich")];
        assert_eq!(t.lower_bound_sk(&key, false, &io).unwrap(), 5);
        // before the start
        let key = vec![Value::from("Amsterdam")];
        assert_eq!(t.lower_bound_sk(&key, false, &io).unwrap(), 0);
    }

    #[test]
    fn sid_range_uses_sparse_index() {
        let t = StableTable::bulk_load(
            inventory_meta(),
            TableOptions {
                block_rows: 2,
                compressed: true,
            },
            &inventory_rows(),
        )
        .unwrap();
        let r = t.sid_range(Some(&[Value::from("Paris")]), Some(&[Value::from("Paris")]));
        assert!(r.start <= 3 && r.end >= 4);
    }

    fn keyed_table(n: i64, block_rows: usize) -> StableTable {
        let rows: Vec<Tuple> = (0..n)
            .map(|i| vec![Value::Int(i * 10), Value::Str(format!("tag{}", i % 3))])
            .collect();
        StableTable::bulk_load(
            TableMeta::new(
                "t",
                Schema::from_pairs(&[("k", ValueType::Int), ("s", ValueType::Str)]),
                vec![0],
            ),
            TableOptions {
                block_rows,
                compressed: true,
            },
            &rows,
        )
        .unwrap()
    }

    fn cols_of(rows: &[Tuple], t: &StableTable) -> Vec<ColumnVec> {
        let mut out = vec![
            ColumnVec::new(ValueType::Int),
            match t.column_dict(1) {
                Some(d) => ColumnVec::new_coded(d.clone()),
                None => ColumnVec::new(ValueType::Str),
            },
        ];
        for r in rows {
            out[0].push(&r[0]);
            out[1].push(&r[1]);
        }
        out
    }

    #[test]
    fn splice_replaces_range_and_keeps_neighbour_blocks() {
        let t = keyed_table(40, 4); // 10 blocks, keys 0..390
        let io = IoTracker::new();
        let all = t.scan_all(&io).unwrap();
        // rewrite blocks [2, 5) (rows 8..20, keys 80..190): drop two rows,
        // add three, one with a brand-new string
        let mut mid: Vec<Tuple> = all[8..20].to_vec();
        mid.retain(|r| r[0] != Value::Int(100) && r[0] != Value::Int(150));
        mid.push(vec![Value::Int(85), Value::Str("fresh".into())]);
        mid.push(vec![Value::Int(86), Value::Str("tag0".into())]);
        mid.push(vec![Value::Int(185), Value::Str("tag1".into())]);
        mid.sort_by(|a, b| a[0].cmp(&b[0]));
        let spliced = t.splice_blocks(2, 5, &cols_of(&mid, &t)).unwrap();
        let mut want = all[..8].to_vec();
        want.extend(mid.clone());
        want.extend_from_slice(&all[20..]);
        assert_eq!(spliced.scan_all(&io).unwrap(), want);
        assert_eq!(spliced.row_count(), 41);
        // untouched blocks share their encoded payloads with the original
        assert_eq!(
            spliced.column_blocks(0)[0].payload.as_ptr(),
            t.column_blocks(0)[0].payload.as_ptr(),
            "prefix block payloads are shared, not copied"
        );
        let last = t.num_blocks() - 1;
        let last_new = spliced.num_blocks() - 1;
        assert_eq!(
            spliced.column_blocks(0)[last_new].payload.as_ptr(),
            t.column_blocks(0)[last].payload.as_ptr(),
            "suffix block payloads are shared, not copied"
        );
        // block addressing works across the variable-stride middle
        for sid in 0..spliced.row_count() {
            let b = spliced.block_of(sid);
            let (lo, hi) = spliced.block_range(b);
            assert!(lo <= sid && sid < hi, "sid {sid} in block {b} [{lo},{hi})");
        }
        // ranged lookup still exact after the splice
        let (lo_b, hi_b) =
            spliced.block_range_for(Some(&[Value::Int(85)]), Some(&[Value::Int(86)]));
        assert!(hi_b - lo_b <= 2, "zone map stays tight: [{lo_b},{hi_b})");
    }

    #[test]
    fn splice_edges_and_errors() {
        let t = keyed_table(16, 4);
        let io = IoTracker::new();
        let all = t.scan_all(&io).unwrap();
        // empty replacement deletes the whole range
        let empty = cols_of(&[], &t);
        let gone = t.splice_blocks(0, 2, &empty).unwrap();
        assert_eq!(gone.scan_all(&io).unwrap(), all[8..].to_vec());
        // whole-table splice
        let full = t.splice_blocks(0, 4, &cols_of(&all, &t)).unwrap();
        assert_eq!(full.scan_all(&io).unwrap(), all);
        // ... keeps no block, so it is a fresh load: the dictionary is
        // rebuilt around a brand-new string and every block stays coded
        let mut grown = all.clone();
        grown.push(vec![Value::Int(999), Value::Str("fresh".into())]);
        let full = t.splice_blocks(0, 4, &cols_of(&grown, &t)).unwrap();
        let loaded = StableTable::bulk_load(t.meta().clone(), t.options(), &grown).unwrap();
        assert!(full.column_dict(1).unwrap().code_of("fresh").is_some());
        assert_eq!(full.block_starts(), loaded.block_starts());
        for c in 0..2 {
            for (a, b) in full.column_blocks(c).iter().zip(loaded.column_blocks(c)) {
                assert_eq!((a.encoding, &a.payload), (b.encoding, &b.payload));
            }
        }
        // while a partial splice keeps the old dictionary and encodes
        // the block that outgrew it on its own
        let tail = t.splice_blocks(3, 4, &cols_of(&grown[12..], &t)).unwrap();
        assert!(tail.column_dict(1).unwrap().code_of("fresh").is_none());
        assert_ne!(
            tail.column_blocks(1).last().unwrap().encoding,
            Encoding::GlobalCode
        );
        assert_eq!(tail.scan_all(&io).unwrap(), grown);
        // out-of-range and out-of-order splices are rejected
        assert!(t.splice_blocks(3, 5, &empty).is_err());
        assert!(t.splice_blocks(2, 1, &empty).is_err());
        // replacement overlapping the kept suffix keys is rejected
        let bad = cols_of(&[vec![Value::Int(90), Value::Str("x".into())]], &t);
        assert!(t.splice_blocks(0, 1, &bad).is_err(), "key 90 > block 1 min");
        // splicing a spliced table again keeps working (chained compaction)
        let again = gone
            .splice_blocks(0, 1, &cols_of(&all[8..12], &gone))
            .unwrap();
        assert_eq!(again.scan_all(&io).unwrap(), all[8..].to_vec());
    }

    #[test]
    fn compressed_smaller_than_plain_on_sorted_keys() {
        let rows: Vec<Tuple> = (0..10_000)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
            .collect();
        let meta = TableMeta::new(
            "t",
            Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]),
            vec![0],
        );
        let comp = StableTable::bulk_load(
            meta.clone(),
            TableOptions {
                block_rows: 1024,
                compressed: true,
            },
            &rows,
        )
        .unwrap();
        let plain = StableTable::bulk_load(
            meta,
            TableOptions {
                block_rows: 1024,
                compressed: false,
            },
            &rows,
        )
        .unwrap();
        assert!(comp.column_bytes(0) < plain.column_bytes(0) / 4);
    }
}
