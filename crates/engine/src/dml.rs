//! Read-write transactions: batch-first DML staged against the table's
//! update structure through the [`DeltaStore`](crate::DeltaStore) interface.
//!
//! The write surface is **batch-first**: every statement —
//! [`DbTxn::append`] (columnar bulk insert, with [`Appender`] for
//! streaming loads), the positional [`DbTxn::delete_rids`] /
//! [`DbTxn::update_col`], and the predicate forms built on them — resolves
//! its victims with *one* scan, packs them into one
//! [`DmlBatch`], and stages it with one
//! [`DeltaTxn::stage_batch`] call. Positional-delta maintenance thus
//! amortizes over the whole statement (one victim/rank scan, one op-log
//! entry, one WAL entry per batch), which is where differential-store
//! write throughput comes from. [`DbTxn::insert`] is the one-row special
//! case of `append`.
//!
//! All statements operate on the transaction's own consistent view
//! (stable ∘ committed deltas ∘ staged updates — eq. (9) for PDT tables),
//! so later statements see earlier updates of the same transaction, exactly
//! as §3.3's Trans-PDT layer prescribes. The same flows serve value-based
//! tables: victims are still located positionally by scans; only the
//! staging representation differs.
//!
//! Batch shape (arity, column types, rid ranges) is validated here, at the
//! API boundary — a malformed batch comes back as
//! [`DbError::BatchShape`] before anything is staged, never as a panic
//! inside a delta structure.
//!
//! Commit is two-phase under the manager's commit guard: every dirty
//! staging area validates itself ([`DeltaTxn::prepare`]) against updates
//! committed since begin — any conflict aborts the whole transaction —
//! then the WAL record is enqueued and every staging area publishes itself
//! at one commit sequence number, so multi-table transactions stay atomic
//! across update structures. A transaction ends when its handle goes away,
//! whichever way that happens ([`DbTxn::commit`], [`DbTxn::abort`], or a
//! plain drop).

use crate::batch::DmlBatch;
use crate::delta::{DeltaSnapshot, DeltaTxn};
use crate::partition::{self, TableEntry};
use crate::{Database, DbError, ScanSpec};
use columnar::{ColumnVec, Schema, StableTable, Tuple, Value, ValueType};
use exec::expr::Expr;
use exec::{Batch, DeltaLayers, Operator, ScanBounds, ScanSegment, TableScan};
use std::collections::HashMap;
use std::sync::Arc;
use txn::wal::WalEntry;

/// One partition's state captured at transaction begin.
pub(crate) struct TxnPart {
    stable: Arc<StableTable>,
    snap: Arc<dyn DeltaSnapshot>,
    staged: Option<Box<dyn DeltaTxn>>,
    /// The partition's compaction heat map: staged batches charge their
    /// payload bytes to the stable blocks they overlap.
    heat: Arc<crate::compaction::PartitionHeat>,
    /// Partition-scoped I/O tracker (shared counters + heat sink) the
    /// transaction's scans of this partition charge.
    heat_io: columnar::IoTracker,
}

impl TxnPart {
    fn layers(&self) -> DeltaLayers<'_> {
        match &self.staged {
            Some(s) => s.layers(),
            None => self.snap.layers(),
        }
    }

    fn delta_total(&self) -> i64 {
        match &self.staged {
            Some(s) => s.delta_total(),
            None => self.snap.delta_total(),
        }
    }

    /// Visible rows of this partition under the transaction's view
    /// (staged updates included).
    fn visible(&self) -> u64 {
        (self.stable.row_count() as i64 + self.delta_total()) as u64
    }
}

/// Per-table state captured at transaction begin: one [`TxnPart`] per
/// partition, plus the split points that route writes between them.
pub(crate) struct TxnTable {
    parts: Vec<TxnPart>,
    splits: Vec<Vec<Value>>,
}

impl TxnTable {
    pub(crate) fn new(entry: &TableEntry) -> Self {
        TxnTable {
            parts: entry
                .parts
                .iter()
                .map(|p| TxnPart {
                    stable: p.stable.clone(),
                    snap: p.delta.snapshot(),
                    staged: None,
                    heat: p.heat.clone(),
                    heat_io: p.heat_io.clone(),
                })
                .collect(),
            splits: entry.splits.clone(),
        }
    }

    fn schema(&self) -> &Schema {
        self.parts[0].stable.schema()
    }

    fn sk_cols(&self) -> &[usize] {
        self.parts[0].stable.sort_key().cols()
    }

    /// Partition owning sort key `key`.
    fn route(&self, key: &[Value]) -> usize {
        partition::route(&self.splits, key)
    }

    /// The partition segments a scan must union, with global rid bases.
    fn segments(&self) -> Vec<ScanSegment<'_>> {
        partition::build_segments(
            self.parts
                .iter()
                .map(|p| (&*p.stable, p.layers(), p.visible(), Some(p.heat_io.clone()))),
        )
    }

    /// Cumulative visible-row offsets: `offsets[p]` is the global RID of
    /// partition `p`'s first row, `offsets[nparts]` the total.
    fn visible_offsets(&self) -> Vec<u64> {
        let mut offsets = Vec::with_capacity(self.parts.len() + 1);
        let mut base = 0u64;
        offsets.push(0);
        for p in &self.parts {
            base += p.visible();
            offsets.push(base);
        }
        offsets
    }
}

/// A read-write transaction handle.
pub struct DbTxn<'db> {
    db: &'db Database,
    id: u64,
    start_seq: u64,
    tables: HashMap<String, TxnTable>,
}

impl<'db> DbTxn<'db> {
    pub(crate) fn new(
        db: &'db Database,
        id: u64,
        start_seq: u64,
        tables: HashMap<String, TxnTable>,
    ) -> Self {
        DbTxn {
            db,
            id,
            start_seq,
            tables,
        }
    }

    fn table(&self, table: &str) -> Result<&TxnTable, DbError> {
        self.tables
            .get(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))
    }

    /// The staging area of one partition of `table`, created on first
    /// update.
    fn staged_mut(&mut self, table: &str, part: usize) -> Result<&mut dyn DeltaTxn, DbError> {
        let start_seq = self.start_seq;
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.to_string()))?;
        let p = &mut t.parts[part];
        Ok(p.staged
            .get_or_insert_with(|| p.snap.begin(start_seq))
            .as_mut())
    }

    /// Stage one partition-local batch, charging its payload bytes to the
    /// partition's compaction heat map (advisory — a heat count from a
    /// transaction that later aborts changes planner priorities, never
    /// correctness; see [`crate::compaction`]).
    fn stage_in(&mut self, table: &str, part: usize, batch: DmlBatch) -> Result<(), DbError> {
        self.staged_mut(table, part)?.stage_batch(&batch);
        record_delta_heat(&self.table(table)?.parts[part], &batch);
        Ok(())
    }

    /// Open a scan described by a [`ScanSpec`] under this transaction's
    /// view (including its own uncommitted updates) — the one scan entry
    /// point. Partitioned tables scan as a sequential union with globally
    /// consecutive RIDs.
    pub fn scan_with(&self, table: &str, spec: ScanSpec) -> Result<TableScan<'_>, DbError> {
        let t = self.table(table)?;
        spec.open(
            table,
            t.schema(),
            t.segments(),
            self.db.io().clone(),
            self.db.clock().clone(),
        )
    }

    /// Scan **one partition** under this transaction's view, with
    /// partition-local RIDs — the unit the positional write paths rank
    /// and collect against.
    fn scan_partition(
        &self,
        table: &str,
        part: usize,
        spec: ScanSpec,
    ) -> Result<TableScan<'_>, DbError> {
        let t = self.table(table)?;
        let p = &t.parts[part];
        spec.open(
            table,
            t.schema(),
            vec![ScanSegment {
                stable: &p.stable,
                layers: p.layers(),
                rid_base: 0,
                io: Some(p.heat_io.clone()),
            }],
            self.db.io().clone(),
            self.db.clock().clone(),
        )
    }

    /// Total visible rows of `table` under this transaction's view,
    /// summed over partitions.
    pub fn visible_rows(&self, table: &str) -> Result<u64, DbError> {
        Ok(self.table(table)?.parts.iter().map(TxnPart::visible).sum())
    }

    /// APPEND a whole columnar batch of new rows; each row's position
    /// follows from the table's sort order. This is the paper's
    /// `SELECT rid WHERE SK > sk ORDER BY rid LIMIT 1` insert-positioning
    /// flow, amortized: the batch is routed to its partitions by sort-key
    /// range, and **one** sparse-index-ranged scan per touched partition
    /// resolves every row's rank (and rejects duplicate sort keys —
    /// intra-batch or against the visible image) before a single
    /// [`DeltaTxn::stage_batch`] call per partition stages the statement.
    /// Rows need not arrive sorted. Returns the number of rows appended;
    /// on error nothing is staged.
    pub fn append(&mut self, table: &str, rows: Batch) -> Result<usize, DbError> {
        let n = rows.num_rows();
        let t = self.table(table)?;
        let schema = t.schema().clone();
        let sk_cols: Vec<usize> = t.sk_cols().to_vec();
        let nparts = t.parts.len();
        validate_batch_shape(table, &schema, &rows)?;
        if n == 0 {
            return Ok(0);
        }
        // key-sort the batch (the staging contract) and reject duplicates
        let keys: Vec<Vec<Value>> = (0..n)
            .map(|i| sk_cols.iter().map(|&c| rows.cols[c].get(i)).collect())
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        for w in order.windows(2) {
            if keys[w[0]] == keys[w[1]] {
                return Err(DbError::DuplicateKey {
                    table: table.to_string(),
                    key: keys[w[0]].clone(),
                });
            }
        }
        // route the key-ordered batch to its partitions (keys are sorted,
        // so each partition's slice stays sorted)
        let t = self.table(table)?;
        let mut groups: Vec<Vec<usize>> = (0..nparts).map(|_| Vec::new()).collect();
        for &i in &order {
            groups[t.route(&keys[i])].push(i);
        }
        // rank every partition's slice first (read-only), so a duplicate
        // detected in a later partition leaves nothing staged
        let mut ranked: Vec<(usize, Vec<u64>)> = Vec::new();
        for (p, idx) in groups.iter().enumerate() {
            if idx.is_empty() {
                continue;
            }
            let pkeys: Vec<&[Value]> = idx.iter().map(|&i| keys[i].as_slice()).collect();
            let base = self.rank_in_partition(table, p, &sk_cols, &pkeys)?;
            // final positions include the intra-batch shift: the j-th row
            // of the partition's slice (in key order) lands j places after
            // its pre-batch rank
            let rids: Vec<u64> = base
                .iter()
                .enumerate()
                .map(|(j, &b)| b + j as u64)
                .collect();
            ranked.push((p, rids));
        }
        // stage per partition; a single-partition, already-sorted input
        // (the common bulk-load case) moves straight through — only
        // out-of-order or cross-partition batches pay the gather copy
        let mut rows = Some(rows);
        for (p, rids) in ranked {
            let idx = &groups[p];
            let sub = if idx.len() == n && idx.iter().enumerate().all(|(i, &o)| i == o) {
                rows.take().expect("whole batch moves once")
            } else {
                rows.as_ref()
                    .expect("batch retained for gathers")
                    .gather(idx)
            };
            self.stage_in(table, p, DmlBatch::Insert { rids, rows: sub })?;
        }
        Ok(n)
    }

    /// Rank sorted `keys` against one partition with a single
    /// sparse-index-ranged scan: a key's base rid is the partition-local
    /// rank of the first visible row with a greater key (the rank of the
    /// range end when none is) — fully ghosted ranges fall back to the
    /// scan's start rank. Detects duplicates against the visible image.
    fn rank_in_partition(
        &self,
        table: &str,
        part: usize,
        sk_cols: &[usize],
        keys: &[&[Value]],
    ) -> Result<Vec<u64>, DbError> {
        let n = keys.len();
        let lo = keys[0].to_vec();
        let hi = keys[n - 1].to_vec();
        let mut base: Vec<u64> = Vec::with_capacity(n);
        let mut scan = self.scan_partition(
            table,
            part,
            ScanSpec::cols(sk_cols.to_vec()).key_range(lo, hi),
        )?;
        let mut last_end = scan.start_rid();
        let mut k = 0usize;
        'scan: while let Some(b) = scan.next_batch() {
            for i in 0..b.num_rows() {
                let vis: Vec<Value> = b.cols.iter().map(|c| c.get(i)).collect();
                while k < n {
                    match keys[k].cmp(&vis[..]) {
                        std::cmp::Ordering::Less => {
                            base.push(b.rid_start + i as u64);
                            k += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            return Err(DbError::DuplicateKey {
                                table: table.to_string(),
                                key: keys[k].to_vec(),
                            });
                        }
                        std::cmp::Ordering::Greater => break,
                    }
                }
                if k == n {
                    break 'scan;
                }
            }
            last_end = b.rid_start + b.num_rows() as u64;
        }
        // keys past every scanned row rank at the range end
        base.resize(n, last_end);
        Ok(base)
    }

    /// INSERT a tuple; its position follows from the table's sort order.
    /// The one-row special case of [`DbTxn::append`].
    pub fn insert(&mut self, table: &str, tuple: Tuple) -> Result<(), DbError> {
        let schema = self.table(table)?.schema().clone();
        validate_tuple(table, &schema, &tuple)?;
        let types = schema.types();
        self.append(table, Batch::from_owned_rows(&types, vec![tuple]))?;
        Ok(())
    }

    /// A streaming bulk-load handle: rows buffer client-side and flush as
    /// sorted batch appends of `batch_rows` (default 4096) rows each.
    pub fn appender<'t>(&'t mut self, table: &str) -> Result<Appender<'t, 'db>, DbError> {
        let schema = self.table(table)?.schema().clone();
        let types = schema.types();
        Ok(Appender {
            buf: Batch::with_capacity(&types, 0),
            types,
            schema,
            table: table.to_string(),
            txn: self,
            batch_rows: Appender::DEFAULT_BATCH_ROWS,
            appended: 0,
        })
    }

    /// Pre-validate a sort-key rewrite (delete victims + re-append the
    /// rewritten rows): the new keys must be distinct and must not collide
    /// with any visible row that is not itself a victim. Checked with one
    /// ranged scan **before anything is staged**, so a rejected statement
    /// leaves the transaction untouched — the same atomicity `append`
    /// gives plain inserts.
    fn check_rewrite_keys(
        &self,
        table: &str,
        victims: &Batch,
        new_rows: &Batch,
    ) -> Result<(), DbError> {
        let sk_cols: Vec<usize> = self.table(table)?.sk_cols().to_vec();
        let key_at = |b: &Batch, i: usize| -> Vec<Value> {
            sk_cols.iter().map(|&c| b.cols[c].get(i)).collect()
        };
        let mut new_keys: Vec<Vec<Value>> = (0..new_rows.num_rows())
            .map(|i| key_at(new_rows, i))
            .collect();
        new_keys.sort();
        for w in new_keys.windows(2) {
            if w[0] == w[1] {
                return Err(DbError::DuplicateKey {
                    table: table.to_string(),
                    key: w[0].clone(),
                });
            }
        }
        let Some((lo, hi)) = new_keys.first().cloned().zip(new_keys.last().cloned()) else {
            return Ok(());
        };
        let victim_keys: std::collections::HashSet<Vec<Value>> = (0..victims.num_rows())
            .map(|i| key_at(victims, i))
            .collect();
        let mut scan = self.scan_with(table, ScanSpec::cols(sk_cols.clone()).key_range(lo, hi))?;
        let mut k = 0usize;
        while let Some(b) = scan.next_batch() {
            for i in 0..b.num_rows() {
                let vis: Vec<Value> = b.cols.iter().map(|c| c.get(i)).collect();
                while k < new_keys.len() && new_keys[k] < vis {
                    k += 1;
                }
                if k == new_keys.len() {
                    return Ok(());
                }
                if new_keys[k] == vis && !victim_keys.contains(&vis) {
                    return Err(DbError::DuplicateKey {
                        table: table.to_string(),
                        key: vis,
                    });
                }
            }
        }
        Ok(())
    }

    /// Full pre-images of the visible rows at `rids` (sorted ascending and
    /// distinct, global positions), collected with one rid-clamped union
    /// scan (partitions outside the window are skipped).
    fn collect_rows_at(&self, table: &str, rids: &[u64]) -> Result<Batch, DbError> {
        let schema = self.table(table)?.schema().clone();
        let mut pre = Batch::with_capacity(&schema.types(), rids.len());
        let Some((&first, &last)) = rids.first().zip(rids.last()) else {
            return Ok(pre);
        };
        let mut scan = self.scan_with(table, ScanSpec::all().rid_range(first, last + 1))?;
        let mut k = 0usize;
        while let Some(b) = scan.next_batch() {
            let end = b.rid_start + b.num_rows() as u64;
            let mut idx = Vec::new();
            while k < rids.len() && rids[k] < end {
                idx.push((rids[k] - b.rid_start) as usize);
                k += 1;
            }
            extend_gathered(&mut pre, &b, &idx);
            if k == rids.len() {
                break;
            }
        }
        if k != rids.len() {
            return Err(batch_shape(table, format!("rid {} out of range", rids[k])));
        }
        Ok(pre)
    }

    /// Stage a globally-addressed positional statement, split into one
    /// [`DmlBatch`] per touched partition with partition-local rids:
    /// `make(local_rids, slice)` builds each partition's batch, where
    /// `slice` is the statement's index range for that partition (`None` =
    /// the whole statement — the single-partition fast path, which moves
    /// the payload instead of slicing it). `rids` ascending and distinct.
    /// Infallible once inputs are validated, so multi-partition statements
    /// stay atomic (nothing stages after an error).
    fn stage_split_positional(
        &mut self,
        table: &str,
        rids: Vec<u64>,
        mut make: impl FnMut(Vec<u64>, Option<std::ops::Range<usize>>) -> DmlBatch,
    ) -> Result<(), DbError> {
        let (nparts, offsets) = {
            let t = self.table(table)?;
            (t.parts.len(), t.visible_offsets())
        };
        if nparts == 1 {
            let batch = make(rids, None);
            self.stage_in(table, 0, batch)?;
            return Ok(());
        }
        let pieces = split_by_offsets(&offsets, &rids);
        // a statement whose victims all land in one partition still moves
        // its payload instead of slicing a full copy
        if let [(p, range)] = pieces.as_slice() {
            debug_assert_eq!(*range, 0..rids.len());
            let local: Vec<u64> = rids.iter().map(|&r| r - offsets[*p]).collect();
            let batch = make(local, None);
            self.stage_in(table, *p, batch)?;
            return Ok(());
        }
        for (p, range) in pieces {
            let local: Vec<u64> = rids[range.clone()]
                .iter()
                .map(|&r| r - offsets[p])
                .collect();
            let batch = make(local, Some(range));
            self.stage_in(table, p, batch)?;
        }
        Ok(())
    }

    /// Per-partition positional delete (see
    /// [`DbTxn::stage_split_positional`]).
    fn stage_batch_delete(
        &mut self,
        table: &str,
        rids: Vec<u64>,
        pre: Batch,
    ) -> Result<(), DbError> {
        let mut pre = Some(pre);
        self.stage_split_positional(table, rids, |rids, slice| DmlBatch::Delete {
            rids,
            pre: match slice {
                None => pre.take().expect("whole statement moves once"),
                Some(r) => slice_rows(pre.as_ref().expect("payload retained"), r),
            },
        })
    }

    /// Per-partition positional single-column update (see
    /// [`DbTxn::stage_split_positional`]).
    fn stage_batch_update(
        &mut self,
        table: &str,
        rids: Vec<u64>,
        col: usize,
        values: ColumnVec,
        pre: Batch,
    ) -> Result<(), DbError> {
        let mut payload = Some((values, pre));
        self.stage_split_positional(table, rids, |rids, slice| match slice {
            None => {
                let (values, pre) = payload.take().expect("whole statement moves once");
                DmlBatch::UpdateCol {
                    rids,
                    col,
                    values,
                    pre,
                }
            }
            Some(r) => {
                let (values, pre) = payload.as_ref().expect("payload retained");
                let mut vals = ColumnVec::new(values.vtype());
                vals.extend_range(values, r.start, r.end);
                DmlBatch::UpdateCol {
                    rids,
                    col,
                    values: vals,
                    pre: slice_rows(pre, r),
                }
            }
        })
    }

    /// DELETE the visible rows at the given positions (any order,
    /// duplicates ignored). One scan collects the pre-images, one
    /// [`DeltaTxn::stage_batch`] call per touched partition stages the
    /// statement. Returns the number of deleted rows.
    pub fn delete_rids(&mut self, table: &str, rids: &[u64]) -> Result<usize, DbError> {
        let visible = self.visible_rows(table)?;
        let mut sorted = rids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let Some(&last) = sorted.last() else {
            return Ok(0);
        };
        if last >= visible {
            return Err(batch_shape(
                table,
                format!("rid {last} out of range (visible rows: {visible})"),
            ));
        }
        let pre = self.collect_rows_at(table, &sorted)?;
        let n = sorted.len();
        self.stage_batch_delete(table, sorted, pre)?;
        Ok(n)
    }

    /// UPDATE one column of the visible rows at the given positions:
    /// `values[i]` becomes the new value of `col` for the row at `rids[i]`.
    /// Sort-key columns are allowed — those updates are rewritten as
    /// delete + insert, per §2.1. Returns the number of updated rows.
    pub fn update_col(
        &mut self,
        table: &str,
        rids: &[u64],
        col: usize,
        values: ColumnVec,
    ) -> Result<usize, DbError> {
        let t = self.table(table)?;
        let schema = t.schema().clone();
        let sk_cols: Vec<usize> = t.sk_cols().to_vec();
        if col >= schema.len() {
            return Err(batch_shape(
                table,
                format!("column #{col} out of range ({} columns)", schema.len()),
            ));
        }
        let want = schema.vtype(col);
        let got = values.vtype();
        if got != want && !(got == ValueType::Int && want == ValueType::Double) {
            return Err(batch_shape(
                table,
                format!("values for column #{col} are {got}, table expects {want}"),
            ));
        }
        if values.len() != rids.len() {
            return Err(batch_shape(
                table,
                format!("{} rids but {} values", rids.len(), values.len()),
            ));
        }
        if rids.is_empty() {
            return Ok(0);
        }
        // pair values with rids, then order by position
        let mut order: Vec<usize> = (0..rids.len()).collect();
        order.sort_by_key(|&i| rids[i]);
        if let Some(w) = order.windows(2).find(|w| rids[w[0]] == rids[w[1]]) {
            return Err(batch_shape(
                table,
                format!("rid {} updated twice in one statement", rids[w[0]]),
            ));
        }
        let visible = self.visible_rows(table)?;
        let last = rids[order[rids.len() - 1]];
        if last >= visible {
            return Err(batch_shape(
                table,
                format!("rid {last} out of range (visible rows: {visible})"),
            ));
        }
        let sorted_rids: Vec<u64> = order.iter().map(|&i| rids[i]).collect();
        let mut sorted_vals = ColumnVec::with_capacity(got, values.len());
        for &i in &order {
            sorted_vals.push_owned(values.get(i));
        }
        let pre = self.collect_rows_at(table, &sorted_rids)?;
        let n = sorted_rids.len();
        if sk_cols.contains(&col) {
            let mut new_rows = Batch::with_capacity(&schema.types(), n);
            for i in 0..n {
                let mut row = pre.row(i);
                row[col] = sorted_vals.get(i);
                new_rows.push_owned_row(row);
            }
            self.stage_key_rewrite(table, sorted_rids, pre, new_rows)?;
        } else {
            self.stage_batch_update(table, sorted_rids, col, sorted_vals, pre)?;
        }
        Ok(n)
    }

    /// The §2.1 sort-key rewrite shared by [`DbTxn::update_col`] and
    /// [`DbTxn::update_where_ranged`]: delete the victims, re-append the
    /// rewritten rows (which re-rank themselves — and re-*route*
    /// themselves: a key rewrite may move a row to a different
    /// partition). Key collisions are checked **before anything is
    /// staged**, so a rejected statement leaves the transaction
    /// untouched.
    fn stage_key_rewrite(
        &mut self,
        table: &str,
        rids: Vec<u64>,
        pre: Batch,
        new_rows: Batch,
    ) -> Result<(), DbError> {
        self.check_rewrite_keys(table, &pre, &new_rows)?;
        self.stage_batch_delete(table, rids, pre)?;
        self.append(table, new_rows)?;
        Ok(())
    }

    /// DELETE rows matching `pred` (evaluated over all table columns).
    /// Returns the number of deleted rows.
    pub fn delete_where(&mut self, table: &str, pred: Expr) -> Result<usize, DbError> {
        self.delete_where_ranged(table, pred, ScanBounds::default())
    }

    /// DELETE with a sort-key range restriction (sparse-index assisted).
    /// One victim scan, one batched staging call.
    pub fn delete_where_ranged(
        &mut self,
        table: &str,
        pred: Expr,
        bounds: ScanBounds,
    ) -> Result<usize, DbError> {
        let schema = self.table(table)?.schema().clone();
        // collect victims (RID + full pre-image) under the current view
        let mut rids: Vec<u64> = Vec::new();
        let mut pre = Batch::empty(&schema.types());
        {
            let mut scan = self.scan_with(table, ScanSpec::all().bounds(bounds))?;
            while let Some(batch) = scan.next_batch() {
                let keep = pred.eval_bool(&batch);
                let idx: Vec<usize> = keep
                    .iter()
                    .enumerate()
                    .filter_map(|(i, hit)| hit.then_some(i))
                    .collect();
                rids.extend(idx.iter().map(|&i| batch.rid_start + i as u64));
                extend_gathered(&mut pre, &batch, &idx);
            }
        }
        let n = rids.len();
        if n > 0 {
            self.stage_batch_delete(table, rids, pre)?;
        }
        Ok(n)
    }

    /// UPDATE rows matching `pred`, assigning each `(column, expression)`
    /// pair (expressions are evaluated over the pre-image row). Sort-key
    /// columns may be assigned: such updates are rewritten as
    /// delete + insert, per §2.1. Returns the number of updated rows.
    pub fn update_where(
        &mut self,
        table: &str,
        pred: Expr,
        sets: Vec<(usize, Expr)>,
    ) -> Result<usize, DbError> {
        self.update_where_ranged(table, pred, sets, ScanBounds::default())
    }

    /// UPDATE with a sort-key range restriction. One victim scan feeds
    /// one batched staging call per assigned column (plain updates), or a
    /// batched delete + batched append (sort-key rewrites).
    pub fn update_where_ranged(
        &mut self,
        table: &str,
        pred: Expr,
        sets: Vec<(usize, Expr)>,
        bounds: ScanBounds,
    ) -> Result<usize, DbError> {
        let t = self.table(table)?;
        let schema = t.schema().clone();
        let types = schema.types();
        let sk_cols: Vec<usize> = t.sk_cols().to_vec();
        let touches_sk = sets.iter().any(|(c, _)| sk_cols.contains(c));

        // victims with their new values, evaluated batch-wise and gathered
        // columnar: one rid run, the pre-images, and one value vector per
        // assigned column
        let mut rids: Vec<u64> = Vec::new();
        let mut pre = Batch::empty(&types);
        let mut set_vals: Vec<Option<ColumnVec>> = sets.iter().map(|_| None).collect();
        {
            let mut scan = self.scan_with(table, ScanSpec::all().bounds(bounds))?;
            while let Some(batch) = scan.next_batch() {
                let keep = pred.eval_bool(&batch);
                if !keep.iter().any(|&k| k) {
                    continue;
                }
                let idx: Vec<usize> = keep
                    .iter()
                    .enumerate()
                    .filter_map(|(i, hit)| hit.then_some(i))
                    .collect();
                rids.extend(idx.iter().map(|&i| batch.rid_start + i as u64));
                extend_gathered(&mut pre, &batch, &idx);
                for ((_, e), acc) in sets.iter().zip(&mut set_vals) {
                    let vals = e.eval(&batch);
                    acc.get_or_insert_with(|| ColumnVec::new(vals.vtype()))
                        .extend_gather(&vals, &idx);
                }
            }
        }
        let n = rids.len();
        if n == 0 {
            return Ok(0);
        }
        if touches_sk {
            // rewrite every victim: new tuple = pre-image + all assignments
            let mut new_rows = Batch::with_capacity(&types, n);
            for i in 0..n {
                let mut row = pre.row(i);
                for ((c, _), vals) in sets.iter().zip(&set_vals) {
                    row[*c] = vals.as_ref().expect("evaluated with victims").get(i);
                }
                new_rows.push_owned_row(row);
            }
            self.stage_key_rewrite(table, rids, pre, new_rows)?;
        } else {
            // one staged batch per assigned column; the last one takes the
            // shared rid/pre-image payload by move, so the common
            // single-column statement never clones it
            let nsets = sets.len();
            let mut rids = rids;
            let mut pre = pre;
            for (j, ((col, _), vals)) in sets.iter().zip(set_vals).enumerate() {
                let (r, p) = if j + 1 == nsets {
                    let p = std::mem::replace(&mut pre, Batch::empty(&[]));
                    (std::mem::take(&mut rids), p)
                } else {
                    (rids.clone(), pre.clone())
                };
                self.stage_batch_update(table, r, *col, vals.expect("evaluated with victims"), p)?;
            }
        }
        Ok(n)
    }

    /// Commit: prepare every touched partition of every touched table
    /// (Serialize for PDT partitions, key-addressed replay validation for
    /// value-store partitions — each partition validates only its own
    /// footprint), append one partition-tagged WAL record, publish
    /// everything at one commit sequence. On conflict the transaction is
    /// gone and the error describes the clash.
    pub fn commit(self) -> Result<u64, DbError> {
        self.commit_observed(|| {})
    }

    /// [`DbTxn::commit`] with an observer invoked under the commit guard,
    /// after the commit's sequence is allocated and its WAL record
    /// enqueued but before anything is published — the window background
    /// work that does *not* take the guard (a Write→Read flush) can land
    /// in. Tests force that interleaving through this seam. The closure
    /// must not begin or commit transactions, open views or checkpoint:
    /// those take the commit guard this thread holds.
    pub fn commit_observed(mut self, before_publish: impl FnOnce()) -> Result<u64, DbError> {
        let trace_start = obs::trace::enabled().then(std::time::Instant::now);
        let db = self.db;
        let mgr = &db.txn_mgr;
        let _commit = mgr.commit_guard();
        // flatten to the dirty (table, partition, staging area) list,
        // deterministic order (WAL records, lock-free publishes); every
        // early return below drops `self`, which ends the transaction
        let mut touched: Vec<(String, u32, Box<dyn DeltaTxn>)> = Vec::new();
        let mut tables: Vec<(String, TxnTable)> =
            std::mem::take(&mut self.tables).into_iter().collect();
        tables.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, t) in tables {
            for (p, part) in t.parts.into_iter().enumerate() {
                if let Some(staged) = part.staged.filter(|s| s.is_dirty()) {
                    touched.push((name.clone(), p as u32, staged));
                }
            }
        }
        if touched.is_empty() {
            // read-only transaction: nothing to do, no new sequence needed
            return Ok(mgr.seq());
        }
        // Phase 1: validate everything, failing wholesale on any conflict.
        for (_, _, staged) in touched.iter_mut() {
            staged.prepare()?;
        }
        // Durability before visibility: one record for the whole commit.
        // The per-partition flattenings also ride along to `publish` —
        // stores that checkpoint by residual replay retain them until a
        // marker covers them.
        let entries: Vec<(String, u32, Vec<WalEntry>)> = touched
            .iter()
            .map(|(name, p, staged)| (name.clone(), *p, staged.wal_entries()))
            .collect();
        let logged: Vec<(&str, u32, &[WalEntry])> = entries
            .iter()
            .filter(|(_, _, e)| !e.is_empty())
            .map(|(t, p, e)| (t.as_str(), *p, e.as_slice()))
            .collect();
        // When tracing, keep the touched (table, partition, wal entries)
        // triples for the commit event and the slow-commit check after
        // the durable wait (`entries` itself is consumed by publish).
        let traced_parts: Vec<(String, u32, u64)> = if trace_start.is_some() {
            entries
                .iter()
                .map(|(name, p, e)| (name.clone(), *p, e.len() as u64))
                .collect()
        } else {
            Vec::new()
        };
        let seq = mgr.alloc_seq();
        // Group commit phase A: enqueue the record in the coordinator's
        // buffer while still under the commit guard (keeps the log in
        // sequence order); the physical append happens after the guard
        // drops, shared with concurrently committing sessions.
        let wal_ticket = mgr.log_commit_enqueue(seq, &logged);
        before_publish();
        // Phase 2: publish (infallible).
        for ((_, _, staged), (_, _, part_entries)) in touched.into_iter().zip(entries) {
            staged.publish(seq, &part_entries);
        }
        // leave the running set under the guard, before the durable wait
        drop(self);
        drop(_commit);
        // Group commit phase B: acknowledge only once the record is on
        // disk. The commit is visible before it is durable; a crash in the
        // window loses only commits whose `commit()` never returned.
        let durable_start = trace_start.map(|_| std::time::Instant::now());
        if let Some(ticket) = wal_ticket {
            mgr.wait_wal_durable(ticket)?;
        }
        if let Some(t0) = trace_start {
            let total = t0.elapsed();
            let durable_ns = durable_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let wal_entries: u64 = traced_parts.iter().map(|(_, _, e)| e).sum();
            obs::event!(
                obs::TraceKind::Commit,
                seq: seq,
                dur_ns: total.as_nanos() as u64,
                a: traced_parts.len() as u64,
                b: wal_entries,
            );
            // Slow-commit log: one event per touched (table, partition)
            // whose table asked for it (`entries` are sorted by table, so
            // the threshold lookup is cached across adjacent partitions).
            let mut cached: Option<(String, Option<std::time::Duration>)> = None;
            for (name, part, part_entries) in &traced_parts {
                if cached.as_ref().is_none_or(|(n, _)| n != name) {
                    let th = db.options(name).ok().and_then(|o| o.slow_commit_threshold);
                    cached = Some((name.clone(), th));
                }
                let slow = cached
                    .as_ref()
                    .and_then(|(_, th)| *th)
                    .is_some_and(|th| total >= th);
                if slow {
                    obs::event!(
                        obs::TraceKind::SlowCommit,
                        table: obs::trace::intern(name),
                        part: *part,
                        seq: seq,
                        dur_ns: total.as_nanos() as u64,
                        a: *part_entries,
                        b: durable_ns,
                    );
                }
            }
        }
        Ok(seq)
    }

    /// Abort, discarding all staged updates (dropping the handle does the
    /// same).
    pub fn abort(self) {}
}

impl Drop for DbTxn<'_> {
    /// However a transaction ends — commit, abort, or an embedder's early
    /// return on a statement error — it leaves the manager's running set,
    /// so the TZ deltas it kept alive can be pruned.
    fn drop(&mut self) {
        self.db.txn_mgr.end_txn(self.id);
    }
}

/// A streaming bulk-load handle (see [`DbTxn::appender`]): rows accumulate
/// in a columnar buffer and flush as one [`DbTxn::append`] per
/// `batch_rows` rows, so a row-at-a-time producer still writes through the
/// batched path. Call [`Appender::finish`] to flush the tail and get the
/// total row count; dropping an unfinished appender discards only the
/// *unflushed* tail (flushed batches are staged in the transaction like
/// any other statement).
pub struct Appender<'t, 'db> {
    txn: &'t mut DbTxn<'db>,
    table: String,
    schema: Schema,
    types: Vec<ValueType>,
    buf: Batch,
    batch_rows: usize,
    appended: usize,
}

impl<'t, 'db> Appender<'t, 'db> {
    const DEFAULT_BATCH_ROWS: usize = 4096;

    /// Override the rows-per-flush granularity (default 4096).
    pub fn with_batch_rows(mut self, rows: usize) -> Self {
        self.batch_rows = rows.max(1);
        self
    }

    /// Buffer one row, flushing a full batch through [`DbTxn::append`].
    pub fn push(&mut self, row: Tuple) -> Result<(), DbError> {
        validate_tuple(&self.table, &self.schema, &row)?;
        self.buf.push_owned_row(row);
        if self.buf.num_rows() >= self.batch_rows {
            self.flush()?;
        }
        Ok(())
    }

    /// Flush the buffered rows as one batch append (no-op when empty).
    pub fn flush(&mut self) -> Result<(), DbError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let batch = std::mem::replace(&mut self.buf, Batch::with_capacity(&self.types, 0));
        self.appended += self.txn.append(&self.table, batch)?;
        Ok(())
    }

    /// Flush the tail and return the total number of rows appended.
    pub fn finish(mut self) -> Result<usize, DbError> {
        self.flush()?;
        Ok(self.appended)
    }
}

fn batch_shape(table: &str, detail: String) -> DbError {
    DbError::BatchShape {
        table: table.to_string(),
        detail,
    }
}

/// Boundary validation of a columnar write batch: full arity, every column
/// of the schema's exact type, no ragged columns.
fn validate_batch_shape(table: &str, schema: &Schema, rows: &Batch) -> Result<(), DbError> {
    if rows.num_cols() != schema.len() {
        return Err(batch_shape(
            table,
            format!(
                "batch has {} columns, table has {}",
                rows.num_cols(),
                schema.len()
            ),
        ));
    }
    let nrows = rows.num_rows();
    for (i, c) in rows.cols.iter().enumerate() {
        if c.vtype() != schema.vtype(i) {
            return Err(batch_shape(
                table,
                format!(
                    "column #{i} is {}, table expects {}",
                    c.vtype(),
                    schema.vtype(i)
                ),
            ));
        }
        if c.len() != nrows {
            return Err(batch_shape(
                table,
                format!(
                    "ragged batch: column #{i} has {} of {} rows",
                    c.len(),
                    nrows
                ),
            ));
        }
    }
    Ok(())
}

/// Boundary validation of one row: full arity, every value of the
/// column's type (`Null` and Int-into-Double promote, as in storage).
fn validate_tuple(table: &str, schema: &Schema, tuple: &[Value]) -> Result<(), DbError> {
    if tuple.len() != schema.len() {
        return Err(batch_shape(
            table,
            format!(
                "row has {} values, table has {} columns",
                tuple.len(),
                schema.len()
            ),
        ));
    }
    for (i, v) in tuple.iter().enumerate() {
        let ok = match (v.value_type(), schema.vtype(i)) {
            (None, _) => true, // Null stores the type default
            (Some(got), want) if got == want => true,
            (Some(ValueType::Int), ValueType::Double) => true,
            _ => false,
        };
        if !ok {
            return Err(batch_shape(
                table,
                format!(
                    "value {v:?} at column #{i} does not fit {}",
                    schema.vtype(i)
                ),
            ));
        }
    }
    Ok(())
}

/// Charge a staged batch's payload bytes to the stable blocks its
/// partition-local rid span overlaps. Rids address the *visible* image,
/// which drifts from stable SIDs as deltas accumulate — close enough for
/// a heat heuristic, and exact right after a checkpoint (when heat
/// restarts cold). Trailing inserts clamp onto the last block.
fn record_delta_heat(p: &TxnPart, batch: &DmlBatch) {
    let (Some(&first), Some(&last)) = (match batch {
        DmlBatch::Insert { rids, .. }
        | DmlBatch::Delete { rids, .. }
        | DmlBatch::UpdateCol { rids, .. } => (rids.first(), rids.last()),
    }) else {
        return;
    };
    let bytes = match batch {
        DmlBatch::Insert { rows, .. } => rows.cols.iter().map(ColumnVec::heap_bytes).sum::<usize>(),
        DmlBatch::Delete { pre, .. } => pre.cols.iter().map(ColumnVec::heap_bytes).sum::<usize>(),
        DmlBatch::UpdateCol { values, .. } => values.heap_bytes(),
    } as u64;
    let n = p.stable.row_count();
    if n == 0 || p.stable.num_blocks() == 0 {
        p.heat.record_delta_span(0, 0, bytes);
        return;
    }
    let b0 = p.stable.block_of(first.min(n - 1));
    let b1 = p.stable.block_of(last.min(n - 1));
    p.heat.record_delta_span(b0, b1, bytes);
}

/// Split ascending global `rids` into per-partition index ranges:
/// partition `p` owns the rids in `[offsets[p], offsets[p+1])`. Only
/// partitions with victims are returned.
fn split_by_offsets(offsets: &[u64], rids: &[u64]) -> Vec<(usize, std::ops::Range<usize>)> {
    let nparts = offsets.len() - 1;
    let mut out = Vec::new();
    let mut i = 0usize;
    for p in 0..nparts {
        let start = i;
        while i < rids.len() && rids[i] < offsets[p + 1] {
            i += 1;
        }
        if i > start {
            out.push((p, start..i));
        }
    }
    out
}

/// Copy a contiguous row range of `src` into a fresh batch (the
/// per-partition slice of a multi-partition positional statement).
fn slice_rows(src: &Batch, range: std::ops::Range<usize>) -> Batch {
    Batch {
        cols: src
            .cols
            .iter()
            .map(|c| {
                let mut out = ColumnVec::new(c.vtype());
                out.extend_range(c, range.start, range.end);
                out
            })
            .collect(),
        rid_start: 0,
    }
}

/// Append the rows of `src` at `idx` onto `dst` column-wise (the
/// selection-vector gather the victim-collection paths share).
fn extend_gathered(dst: &mut Batch, src: &Batch, idx: &[usize]) {
    if idx.is_empty() {
        return;
    }
    for (d, s) in dst.cols.iter_mut().zip(&src.cols) {
        d.extend_gather(s, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TableOptions, UpdatePolicy};
    use columnar::{Schema, TableMeta, ValueType};
    use exec::expr::{col, lit};
    use exec::run_to_rows;

    fn db_with_ints(n: i64, policy: UpdatePolicy) -> Database {
        let db = Database::new();
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let rows: Vec<Tuple> = (0..n)
            .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
            .collect();
        db.create_table(
            TableMeta::new("t", schema, vec![0]),
            TableOptions {
                block_rows: 8,
                policy,
                ..TableOptions::default()
            },
            rows,
        )
        .unwrap();
        db
    }

    fn keys(db: &Database) -> Vec<i64> {
        let view = db.read_view();
        let mut scan = view.scan_with("t", ScanSpec::cols(vec![0])).unwrap();
        run_to_rows(&mut scan)
            .iter()
            .map(|r| r[0].as_int())
            .collect()
    }

    use crate::ALL_POLICIES;

    #[test]
    fn own_updates_visible_within_txn() {
        for policy in ALL_POLICIES {
            let db = db_with_ints(10, policy);
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(55), Value::Int(0)]).unwrap();
            assert_eq!(t.visible_rows("t").unwrap(), 11, "{policy:?}");
            // the same txn can find and modify the new tuple
            let n = t
                .update_where("t", col(0).eq(lit(55i64)), vec![(1, lit(9i64))])
                .unwrap();
            assert_eq!(n, 1);
            let mut scan = t.scan_with("t", ScanSpec::cols(vec![0, 1])).unwrap();
            let rows = run_to_rows(&mut scan);
            let hit = rows.iter().find(|r| r[0] == Value::Int(55)).unwrap();
            assert_eq!(hit[1], Value::Int(9));
            t.commit().unwrap();
            assert!(keys(&db).contains(&55), "{policy:?}");
        }
    }

    #[test]
    fn multi_row_delete_descending_rids() {
        for policy in ALL_POLICIES {
            let db = db_with_ints(20, policy);
            let mut t = db.begin();
            let n = t
                .delete_where("t", col(0).ge(lit(50i64)).and(col(0).le(lit(120i64))))
                .unwrap();
            assert_eq!(n, 8);
            t.commit().unwrap();
            let ks = keys(&db);
            assert_eq!(ks.len(), 12);
            assert!(!ks.contains(&50) && !ks.contains(&120) && ks.contains(&130));
        }
    }

    #[test]
    fn abort_discards_updates() {
        for policy in ALL_POLICIES {
            let db = db_with_ints(5, policy);
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(99), Value::Int(0)]).unwrap();
            t.abort();
            assert_eq!(keys(&db).len(), 5, "{policy:?}");
        }
    }

    #[test]
    fn ranged_delete_uses_bounds() {
        let db = db_with_ints(100, UpdatePolicy::Pdt);
        let io_before = db.io().stats();
        let mut t = db.begin();
        t.delete_where_ranged(
            "t",
            col(0).eq(lit(500i64)),
            ScanBounds {
                lo: Some(vec![Value::Int(500)]),
                hi: Some(vec![Value::Int(500)]),
            },
        )
        .unwrap();
        t.commit().unwrap();
        let scan_bytes = db.io().stats().since(&io_before).bytes_read;
        assert!(keys(&db).len() == 99);
        // the ranged victim scan must not have read the whole table
        let full = db.stable_single("t").unwrap().total_bytes();
        assert!(scan_bytes < full, "{scan_bytes} vs {full}");
    }

    #[test]
    fn insert_positions_respect_own_deletes() {
        for policy in ALL_POLICIES {
            let db = db_with_ints(10, policy);
            let mut t = db.begin();
            // delete key 50 then insert 45: must go where 50 was
            t.delete_where("t", col(0).eq(lit(50i64))).unwrap();
            t.insert("t", vec![Value::Int(45), Value::Int(0)]).unwrap();
            t.commit().unwrap();
            let ks = keys(&db);
            assert_eq!(ks, vec![0, 10, 20, 30, 40, 45, 60, 70, 80, 90]);
        }
    }

    #[test]
    fn insert_beyond_fully_ghosted_tail() {
        // regression (found by fuzzing): when every stable row the ranged
        // victim scan covers is a ghost, the scan emits nothing — the
        // insert rank must then fall back to the scan's start RID, not 0.
        for policy in ALL_POLICIES {
            let db = db_with_ints(40, policy);
            let mut t = db.begin();
            t.delete_where("t", col(0).ge(lit(320i64))).unwrap();
            t.commit().unwrap();
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(1980), Value::Int(0)])
                .unwrap();
            t.commit().unwrap();
            let ks = keys(&db);
            assert!(ks.windows(2).all(|w| w[0] < w[1]), "order violated: {ks:?}");
            assert_eq!(*ks.last().unwrap(), 1980);
        }
    }

    fn int_types() -> Vec<ValueType> {
        vec![ValueType::Int, ValueType::Int]
    }

    #[test]
    fn append_matches_row_at_a_time_inserts() {
        for policy in ALL_POLICIES {
            let batched = db_with_ints(10, policy);
            let looped = db_with_ints(10, policy);
            // unsorted input, scattered + clustered + tail positions
            let rows: Vec<Tuple> = [95i64, 5, 41, 43, 42, 1000, 999]
                .iter()
                .map(|&k| vec![Value::Int(k), Value::Int(-k)])
                .collect();
            let mut t = batched.begin();
            assert_eq!(
                t.append("t", Batch::from_rows(&int_types(), &rows))
                    .unwrap(),
                7
            );
            t.commit().unwrap();
            let mut t = looped.begin();
            for r in &rows {
                t.insert("t", r.clone()).unwrap();
            }
            t.commit().unwrap();
            let img = |db: &Database| {
                let view = db.read_view();
                exec::run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1])).unwrap())
            };
            assert_eq!(img(&batched), img(&looped), "{policy:?}");
            let ks: Vec<i64> = img(&batched).iter().map(|r| r[0].as_int()).collect();
            assert!(ks.windows(2).all(|w| w[0] < w[1]), "{policy:?}: {ks:?}");
        }
    }

    #[test]
    fn append_rejects_duplicates_atomically() {
        for policy in ALL_POLICIES {
            let db = db_with_ints(10, policy);
            // intra-batch duplicate
            let mut t = db.begin();
            let dup = vec![
                vec![Value::Int(5), Value::Int(0)],
                vec![Value::Int(5), Value::Int(1)],
            ];
            assert!(matches!(
                t.append("t", Batch::from_rows(&int_types(), &dup)),
                Err(DbError::DuplicateKey { .. })
            ));
            // duplicate against the visible image — nothing staged by the
            // failed statement, so the good row is absent too
            let mixed = vec![
                vec![Value::Int(77), Value::Int(0)],
                vec![Value::Int(30), Value::Int(1)],
            ];
            assert!(matches!(
                t.append("t", Batch::from_rows(&int_types(), &mixed)),
                Err(DbError::DuplicateKey { .. })
            ));
            assert_eq!(t.visible_rows("t").unwrap(), 10, "{policy:?}");
            t.abort();
        }
    }

    #[test]
    fn append_ranks_against_own_staged_rows() {
        for policy in ALL_POLICIES {
            let db = db_with_ints(4, policy);
            let mut t = db.begin();
            t.append(
                "t",
                Batch::from_rows(&int_types(), &[vec![Value::Int(15), Value::Int(0)]]),
            )
            .unwrap();
            // second batch interleaves with the first batch's row
            t.append(
                "t",
                Batch::from_rows(
                    &int_types(),
                    &[
                        vec![Value::Int(13), Value::Int(0)],
                        vec![Value::Int(17), Value::Int(0)],
                    ],
                ),
            )
            .unwrap();
            t.commit().unwrap();
            assert_eq!(keys(&db), vec![0, 10, 13, 15, 17, 20, 30], "{policy:?}");
        }
    }

    #[test]
    fn delete_rids_matches_predicate_deletes() {
        for policy in ALL_POLICIES {
            let db = db_with_ints(20, policy);
            let mut t = db.begin();
            // unsorted, with a duplicate — keys 30, 70, 180
            let n = t.delete_rids("t", &[7, 3, 18, 7]).unwrap();
            assert_eq!(n, 3);
            t.commit().unwrap();
            let ks = keys(&db);
            assert_eq!(ks.len(), 17, "{policy:?}");
            assert!(!ks.contains(&30) && !ks.contains(&70) && !ks.contains(&180));
        }
    }

    #[test]
    fn update_col_positional_and_sort_key_rewrite() {
        for policy in ALL_POLICIES {
            let db = db_with_ints(10, policy);
            let mut t = db.begin();
            // plain column, unsorted rids paired with values
            let n = t
                .update_col("t", &[8, 2], 1, ColumnVec::Int(vec![88, 22]))
                .unwrap();
            assert_eq!(n, 2);
            // sort-key column: rewrite 90 -> 35 repositions the row
            let n = t
                .update_col("t", &[9], 0, ColumnVec::Int(vec![35]))
                .unwrap();
            assert_eq!(n, 1);
            t.commit().unwrap();
            let view = db.read_view();
            let rows =
                exec::run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1])).unwrap());
            let ks: Vec<i64> = rows.iter().map(|r| r[0].as_int()).collect();
            assert_eq!(
                ks,
                vec![0, 10, 20, 30, 35, 40, 50, 60, 70, 80],
                "{policy:?}"
            );
            let find = |k: i64| rows.iter().find(|r| r[0].as_int() == k).unwrap()[1].as_int();
            assert_eq!(find(20), 22, "{policy:?}");
            assert_eq!(find(80), 88, "{policy:?}");
            assert_eq!(find(35), 9, "{policy:?}: payload survives the rewrite");
        }
    }

    #[test]
    fn failed_sort_key_rewrite_stages_nothing() {
        // regression (code review): the §2.1 delete+append rewrite used to
        // stage its deletes before the re-append detected a key collision,
        // leaving the statement half-applied on error
        for policy in ALL_POLICIES {
            let db = db_with_ints(5, policy);
            let mut t = db.begin();
            // rewrite 0 -> 30 collides with the existing key 30
            assert!(matches!(
                t.update_col("t", &[0], 0, ColumnVec::Int(vec![30])),
                Err(DbError::DuplicateKey { .. })
            ));
            assert_eq!(t.visible_rows("t").unwrap(), 5, "{policy:?}: delete leaked");
            // same through the predicate form
            assert!(matches!(
                t.update_where("t", col(0).eq(lit(0i64)), vec![(0, lit(30i64))]),
                Err(DbError::DuplicateKey { .. })
            ));
            assert_eq!(t.visible_rows("t").unwrap(), 5, "{policy:?}: delete leaked");
            // two victims rewriting into each other's key range still works
            // (deletes free the keys before the appends rank themselves)
            let n = t
                .update_col("t", &[1, 2], 0, ColumnVec::Int(vec![20, 10]))
                .unwrap();
            assert_eq!(n, 2);
            t.commit().unwrap();
            assert_eq!(keys(&db), vec![0, 10, 20, 30, 40], "{policy:?}");
            let view = db.read_view();
            let rows = run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1])).unwrap());
            assert_eq!(rows[2][1], Value::Int(1), "{policy:?}: 10->20 payload");
            assert_eq!(rows[1][1], Value::Int(2), "{policy:?}: 20->10 payload");
        }
    }

    #[test]
    fn appender_streams_through_batched_appends() {
        for policy in ALL_POLICIES {
            let db = db_with_ints(5, policy);
            let mut t = db.begin();
            let mut app = t.appender("t").unwrap().with_batch_rows(3);
            for k in [95i64, 5, 41, 107, 203, 11, 12] {
                app.push(vec![Value::Int(k), Value::Int(0)]).unwrap();
            }
            assert_eq!(app.finish().unwrap(), 7);
            t.commit().unwrap();
            let ks = keys(&db);
            assert_eq!(ks.len(), 12, "{policy:?}");
            assert!(ks.windows(2).all(|w| w[0] < w[1]), "{policy:?}: {ks:?}");
        }
    }

    #[test]
    fn batch_shape_errors_at_the_boundary() {
        let db = db_with_ints(5, UpdatePolicy::Pdt);
        let mut t = db.begin();
        // wrong arity
        let narrow = Batch::from_rows(&[ValueType::Int], &[vec![Value::Int(1)]]);
        assert!(matches!(
            t.append("t", narrow),
            Err(DbError::BatchShape { .. })
        ));
        // wrong column type
        let wrong = Batch::from_rows(
            &[ValueType::Int, ValueType::Str],
            &[vec![Value::Int(1), Value::Str("x".into())]],
        );
        assert!(matches!(
            t.append("t", wrong),
            Err(DbError::BatchShape { .. })
        ));
        // tuple arity through insert and the appender
        assert!(matches!(
            t.insert("t", vec![Value::Int(1)]),
            Err(DbError::BatchShape { .. })
        ));
        let mut app = t.appender("t").unwrap();
        assert!(matches!(
            app.push(vec![Value::Str("oops".into()), Value::Int(0)]),
            Err(DbError::BatchShape { .. })
        ));
        drop(app);
        // positional forms: out-of-range rid, mismatched value count,
        // duplicate rid
        assert!(matches!(
            t.delete_rids("t", &[99]),
            Err(DbError::BatchShape { .. })
        ));
        assert!(matches!(
            t.update_col("t", &[0, 1], 1, ColumnVec::Int(vec![7])),
            Err(DbError::BatchShape { .. })
        ));
        assert!(matches!(
            t.update_col("t", &[1, 1], 1, ColumnVec::Int(vec![7, 8])),
            Err(DbError::BatchShape { .. })
        ));
        assert!(matches!(
            t.update_col("t", &[0], 9, ColumnVec::Int(vec![7])),
            Err(DbError::BatchShape { .. })
        ));
        assert!(matches!(
            t.update_col("t", &[0], 1, ColumnVec::Str(vec!["x".into()])),
            Err(DbError::BatchShape { .. })
        ));
        // nothing staged by any rejected statement
        assert_eq!(t.visible_rows("t").unwrap(), 5);
        t.commit().unwrap();
        assert_eq!(keys(&db).len(), 5);
    }

    #[test]
    fn scan_specs_project_window_and_resolve_names() {
        let db = db_with_ints(50, UpdatePolicy::Pdt);
        let view = db.read_view();
        let by_idx = run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![1])).unwrap());
        let by_name = run_to_rows(&mut view.scan_with("t", crate::ScanSpec::named(["v"])).unwrap());
        assert_eq!(by_idx, by_name);
        let all = run_to_rows(&mut view.scan_with("t", crate::ScanSpec::all()).unwrap());
        assert_eq!(all.len(), 50);
        assert_eq!(all[0].len(), 2);
        // rid window
        let windowed = run_to_rows(
            &mut view
                .scan_with("t", crate::ScanSpec::all().rid_range(10, 13))
                .unwrap(),
        );
        assert_eq!(windowed, all[10..13].to_vec());
        // unknown name errors
        assert!(matches!(
            view.scan_with("t", crate::ScanSpec::named(["ghost"])),
            Err(DbError::UnknownColumn { .. })
        ));
        // txn-side spec scan sees staged updates
        let mut t = db.begin();
        t.insert("t", vec![Value::Int(5), Value::Int(-1)]).unwrap();
        let staged = run_to_rows(&mut t.scan_with("t", crate::ScanSpec::named(["k"])).unwrap());
        assert_eq!(staged.len(), 51);
        t.abort();
    }

    #[test]
    fn dropped_txn_leaves_the_running_set() {
        // an embedder bails out of a transaction on a statement error
        // without calling abort: the handle's drop must still end it, or
        // the TZ watermark sticks at its start sequence and every later
        // commit's serialized delta is retained forever
        let db = db_with_ints(10, UpdatePolicy::Pdt);
        // swap the (still empty) store for one whose layers stay in sight
        let store = crate::PdtStore::new(
            db.txn_mgr.clone(),
            "t".into(),
            db.schema("t").unwrap(),
            vec![0],
        );
        db.tables.write().get_mut("t").unwrap().parts[0].delta = Arc::new(store.clone());
        {
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(55), Value::Int(0)]).unwrap();
            let dup = t.insert("t", vec![Value::Int(30), Value::Int(0)]);
            assert!(matches!(dup, Err(DbError::DuplicateKey { .. })));
        }
        assert_eq!(db.txn_mgr.watermark(), db.txn_mgr.seq());
        for i in 0..5 {
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(1000 + i), Value::Int(i)])
                .unwrap();
            t.commit().unwrap();
        }
        assert_eq!(
            db.txn_mgr.watermark(),
            db.txn_mgr.seq(),
            "dropped txn still pins the watermark"
        );
        // the last commit's own delta waits for the next time the layers
        // are locked — a view is enough
        assert_eq!(store.layers.tz_retained(), 1);
        drop(db.read_view());
        assert_eq!(store.layers.tz_retained(), 0, "TZ set outlives its readers");
        assert!(!keys(&db).contains(&55), "dropped txn published nothing");
    }

    #[test]
    fn conflicting_engine_txns() {
        let db = db_with_ints(10, UpdatePolicy::Pdt);
        let mut a = db.begin();
        let mut b = db.begin();
        a.update_where("t", col(0).eq(lit(30i64)), vec![(1, lit(1i64))])
            .unwrap();
        b.update_where("t", col(0).eq(lit(30i64)), vec![(1, lit(2i64))])
            .unwrap();
        a.commit().unwrap();
        assert!(matches!(b.commit(), Err(DbError::Txn(_))));
    }

    /// The two value-addressed stores, which share the key-based conflict
    /// semantics these tests pin down (the PDT equivalents live in
    /// `conflicting_engine_txns` and the txn crate).
    const VALUE_STORES: [UpdatePolicy; 2] = [UpdatePolicy::Vdt, UpdatePolicy::RowStore];

    #[test]
    fn conflicting_value_store_inserts_abort_second_writer() {
        for policy in VALUE_STORES {
            let db = db_with_ints(10, policy);
            let mut a = db.begin();
            let mut b = db.begin();
            a.insert("t", vec![Value::Int(55), Value::Int(1)]).unwrap();
            b.insert("t", vec![Value::Int(55), Value::Int(2)]).unwrap();
            a.commit().unwrap();
            assert!(
                matches!(b.commit(), Err(DbError::Conflict { .. })),
                "{policy:?}"
            );
            // state reflects only a's insert
            let view = db.read_view();
            let mut scan = view.scan_with("t", ScanSpec::cols(vec![0, 1])).unwrap();
            let rows = run_to_rows(&mut scan);
            let hit = rows.iter().find(|r| r[0] == Value::Int(55)).unwrap();
            assert_eq!(hit[1], Value::Int(1), "{policy:?}");
        }
    }

    #[test]
    fn conflicting_value_store_modifies_abort_second_writer() {
        // same column of the same tuple: the value-based validation must
        // detect the lost update, exactly like PDT Serialize does
        for policy in VALUE_STORES {
            let db = db_with_ints(10, policy);
            let mut a = db.begin();
            let mut b = db.begin();
            a.update_where("t", col(0).eq(lit(30i64)), vec![(1, lit(1i64))])
                .unwrap();
            b.update_where("t", col(0).eq(lit(30i64)), vec![(1, lit(2i64))])
                .unwrap();
            a.commit().unwrap();
            assert!(
                matches!(b.commit(), Err(DbError::Conflict { .. })),
                "{policy:?}"
            );
            let view = db.read_view();
            let rows = run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1])).unwrap());
            assert_eq!(
                rows[3][1],
                Value::Int(1),
                "{policy:?}: first writer's value survives"
            );
        }
    }

    #[test]
    fn disjoint_column_value_store_modifies_reconcile() {
        // different columns of the same tuple reconcile (CheckModConflict)
        for policy in VALUE_STORES {
            let db = Database::new();
            let schema = Schema::from_pairs(&[
                ("k", ValueType::Int),
                ("a", ValueType::Int),
                ("b", ValueType::Int),
            ]);
            db.create_table(
                TableMeta::new("t", schema, vec![0]),
                TableOptions::default().with_policy(policy),
                vec![vec![Value::Int(1), Value::Int(0), Value::Int(0)]],
            )
            .unwrap();
            let mut p = db.begin();
            let mut q = db.begin();
            p.update_where("t", col(0).eq(lit(1i64)), vec![(1, lit(11i64))])
                .unwrap();
            q.update_where("t", col(0).eq(lit(1i64)), vec![(2, lit(22i64))])
                .unwrap();
            p.commit().unwrap();
            q.commit()
                .unwrap_or_else(|e| panic!("{policy:?}: disjoint columns must reconcile: {e}"));
            let view = db.read_view();
            let rows =
                run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1, 2])).unwrap());
            assert_eq!(
                rows[0],
                vec![Value::Int(1), Value::Int(11), Value::Int(22)],
                "{policy:?}"
            );
        }
    }

    #[test]
    fn value_store_delete_vs_modify_conflicts() {
        for policy in VALUE_STORES {
            let db = db_with_ints(10, policy);
            let mut a = db.begin();
            let mut b = db.begin();
            a.update_where("t", col(0).eq(lit(30i64)), vec![(1, lit(1i64))])
                .unwrap();
            b.delete_where("t", col(0).eq(lit(30i64))).unwrap();
            a.commit().unwrap();
            assert!(
                matches!(b.commit(), Err(DbError::Conflict { .. })),
                "{policy:?}"
            );
            assert_eq!(
                db.row_count("t").unwrap(),
                10,
                "{policy:?}: delete must not land"
            );
        }
    }

    #[test]
    fn disjoint_value_store_commits_both_land() {
        // the validation path: b began before a committed, touching other
        // keys — both commits must land
        for policy in VALUE_STORES {
            let db = db_with_ints(10, policy);
            let mut a = db.begin();
            let mut b = db.begin();
            a.update_where("t", col(0).eq(lit(10i64)), vec![(1, lit(-1i64))])
                .unwrap();
            b.update_where("t", col(0).eq(lit(80i64)), vec![(1, lit(-2i64))])
                .unwrap();
            a.commit().unwrap();
            b.commit().unwrap();
            let view = db.read_view();
            let mut scan = view.scan_with("t", ScanSpec::cols(vec![0, 1])).unwrap();
            let rows = run_to_rows(&mut scan);
            assert_eq!(rows[1][1], Value::Int(-1), "{policy:?}");
            assert_eq!(rows[8][1], Value::Int(-2), "{policy:?}");
            assert_eq!(rows.len(), 10, "{policy:?}");
        }
    }
}
