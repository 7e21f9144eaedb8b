//! Read-write transactions: batch-first DML staged against the table's
//! update structure through the [`DeltaStore`](crate::DeltaStore) interface.
//!
//! The write surface is **batch-first**: every statement —
//! [`DbTxn::append`] (columnar bulk insert, with [`Appender`] for
//! streaming loads), the positional [`DbTxn::delete_rids`] /
//! [`DbTxn::update_col`], and the predicate forms built on them — resolves
//! its positions *once*, packs them into one [`DmlBatch`], and stages it
//! with one [`DeltaTxn::stage_batch`] call (one op-log entry, one WAL
//! entry per batch). [`DbTxn::insert`] is the one-row special case of
//! `append`.
//!
//! **Position resolution costs what the update structure makes it cost.**
//! Three resolvers serve every statement, and none of them opens a scan
//! over more than it must:
//!
//! * the **gather** ([`exec::gather_rows`]) answers "the pre-images at
//!   these RIDs": on a PDT table each RID walks the layer stack in
//!   O(log n) and only the stable blocks that hold a victim are decoded;
//!   a value-addressed table has no positional index, so its arm merges
//!   the RID window — the difference the paper is about;
//! * the **ranker** ([`exec::rank_keys`], under [`DbTxn::append`])
//!   answers "where do these keys go" (the paper's
//!   `SELECT rid WHERE SK > sk LIMIT 1`, amortized over sorted keys): on
//!   a PDT table the stable zone map names the one block a key lands in,
//!   that block's sort-key columns are decoded once for all the keys
//!   landing there and bisected, and each layer lifts the stable rank by
//!   one descent ([`pdt::Pdt::lift_rank`]) — no scan; a value-addressed
//!   table's arm is one sort-key-only ranged scan per run of keys whose
//!   sparse-index ranges touch. This module keeps only the routing and
//!   the duplicate verdict (a key equal to a visible row's, unless a
//!   sort-key rewrite exempts its own victims);
//! * the **victim scan** of the predicate forms reads the columns the
//!   predicate and the assignments mention, plus the pre-image.
//!
//! *Which* pre-image columns a statement fetches is the structure's call
//! ([`DeltaSnapshot::pre_image_cols`]): a PDT keeps a ghost's sort key
//! and nothing of a modified tuple, so `update_col` on a PDT table reads
//! no stable byte at all. Each resolution reports itself once — a
//! [`obs::TraceKind::DmlResolve`] event and the `db.dml.*` counters.
//!
//! All statements operate on the transaction's own consistent view
//! (stable ∘ committed deltas ∘ staged updates — eq. (9) for PDT tables),
//! so later statements see earlier updates of the same transaction, exactly
//! as §3.3's Trans-PDT layer prescribes.
//!
//! Batch shape (arity, column types, rid ranges) is validated here, at the
//! API boundary — a malformed batch comes back as
//! [`DbError::BatchShape`] before anything is staged or any block is read,
//! never as a panic inside a delta structure.
//!
//! Commit is two-phase under the manager's commit guard: every dirty
//! staging area validates itself ([`DeltaTxn::prepare`]) against updates
//! committed since begin — any conflict aborts the whole transaction —
//! then the WAL record is enqueued and every staging area publishes itself
//! at one commit sequence number, so multi-table transactions stay atomic
//! across update structures. A transaction ends when its handle goes away,
//! whichever way that happens ([`DbTxn::commit`], [`DbTxn::abort`], or a
//! plain drop).

use crate::batch::{DmlBatch, PreImageOf};
use crate::compaction::PartitionHeat;
use crate::delta::{DeltaSnapshot, DeltaTxn};
use crate::partition::{self, TableEntry};
use crate::{Database, DbError, ScanSpec};
use columnar::{ColumnVec, Schema, StableTable, Tuple, Value, ValueType};
use exec::expr::Expr;
use exec::{Batch, DeltaLayers, ScanBounds, ScanSegment, TableScan};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use txn::wal::WalEntry;

/// One partition's state captured at transaction begin.
pub(crate) struct TxnPart {
    stable: Arc<StableTable>,
    snap: Arc<dyn DeltaSnapshot>,
    staged: Option<Box<dyn DeltaTxn>>,
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
/// partition, beside the table's entry — split points, heat maps and
/// options are read from it, not copied.
pub(crate) struct TxnTable {
    entry: Arc<TableEntry>,
    parts: Vec<TxnPart>,
}

impl TxnTable {
    pub(crate) fn new(entry: Arc<TableEntry>) -> Self {
        let parts = entry
            .parts
            .iter()
            .map(|p| TxnPart {
                stable: p.stable(),
                snap: p.delta.snapshot(),
                staged: None,
            })
            .collect();
        TxnTable { entry, parts }
    }

    fn schema(&self) -> &Schema {
        &self.entry.schema
    }

    /// Partition-scoped I/O tracker (shared counters + heat sink) the
    /// transaction's scans of partition `p` charge.
    fn heat_io(&self, p: usize) -> columnar::IoTracker {
        self.entry.parts[p].heat_io.clone()
    }

    fn sk_cols(&self) -> &[usize] {
        self.parts[0].stable.sort_key().cols()
    }

    /// The pre-image columns the table's update structure wants of a
    /// `stmt` victim (one policy per table, so any partition answers).
    fn pre_image_cols(&self, stmt: PreImageOf) -> Vec<usize> {
        self.parts[0].snap.pre_image_cols(stmt)
    }

    /// Partition owning sort key `key`.
    fn route(&self, key: &[Value]) -> usize {
        partition::route(&self.entry.splits, key)
    }

    /// The partition segments a scan must union, with global rid bases.
    fn segments(&self) -> Vec<ScanSegment<'_>> {
        partition::build_segments(
            self.parts
                .iter()
                .enumerate()
                .map(|(i, p)| (&*p.stable, p.layers(), p.visible(), self.heat_io(i))),
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
        let t = self.table(table)?;
        record_delta_heat(&t.parts[part].stable, &t.entry.parts[part].heat, &batch);
        Ok(())
    }

    /// Open a scan described by a [`ScanSpec`] under this transaction's
    /// view (including its own uncommitted updates) — the one scan entry
    /// point. Partitioned tables scan as a sequential union with globally
    /// consecutive RIDs.
    pub fn scan_with(&self, table: &str, spec: ScanSpec) -> Result<TableScan<'_>, DbError> {
        let t = self.table(table)?;
        spec.open(table, t.schema(), t.segments(), self.db.clock().clone())
    }

    /// Total visible rows of `table` under this transaction's view,
    /// summed over partitions.
    pub fn visible_rows(&self, table: &str) -> Result<u64, DbError> {
        Ok(self.table(table)?.parts.iter().map(TxnPart::visible).sum())
    }

    /// Account one position resolution: `n` rids or keys found at the cost
    /// of `blocks` decoded stable blocks, in `part` (`None` when the
    /// resolution spanned partitions).
    fn note_resolved(&self, table: &str, part: Option<usize>, t0: Instant, n: usize, blocks: u64) {
        self.db.dml_rids_resolved.add(n as u64);
        self.db.dml_blocks_decoded.add(blocks);
        obs::event!(
            obs::TraceKind::DmlResolve,
            table: obs::trace::intern(table),
            part: part.map_or(obs::trace::NO_PART, |p| p as u32),
            dur_ns: t0.elapsed().as_nanos() as u64,
            a: n as u64,
            b: blocks,
        );
    }

    /// Test seam onto the ranker [`DbTxn::append`] positions its rows
    /// with: per touched partition, in split order, `(partition, base
    /// rids)` — the partition-local rank of each of `rows`' sort keys (in
    /// key order) among the rows visible to this transaction — or the
    /// duplicate-key error `append` would return. Read-only.
    pub fn rank_rows(&self, table: &str, rows: &Batch) -> Result<Vec<(usize, Vec<u64>)>, DbError> {
        let ranked = self.rank(table, rows, &[])?;
        Ok(ranked.into_iter().map(|r| (r.part, r.base)).collect())
    }

    /// Route and rank a write batch (full-width `rows`, any order): per
    /// touched partition, in split order, the row indices it owns **in key
    /// order** and each one's partition-local base rid — its rank among the
    /// partition's visible rows, before the batch's own rows shift it
    /// ([`exec::rank_keys`]). A key equal to a visible row's is a duplicate
    /// unless it is in `exempt` (sorted: a sort-key rewrite's own victims,
    /// which the statement deletes first). Keys are equal under the order
    /// they sort by (`Value::cmp`: `-0.0` and `0.0` differ, a NaN equals
    /// itself). Read-only, and every partition is ranked before anything
    /// is returned, so a duplicate sort key — within the batch, or against
    /// a visible row — leaves nothing staged.
    fn rank(
        &self,
        table: &str,
        rows: &Batch,
        exempt: &[Vec<Value>],
    ) -> Result<Vec<Ranked>, DbError> {
        let t = self.table(table)?;
        let sk_cols = t.sk_cols();
        let n = rows.num_rows();
        let keys: Vec<Vec<Value>> = (0..n)
            .map(|i| sk_cols.iter().map(|&c| rows.cols[c].get(i)).collect())
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        let duplicate = |key: &[Value]| DbError::DuplicateKey {
            table: table.to_string(),
            key: key.to_vec(),
        };
        if let Some(w) = order
            .windows(2)
            .find(|w| keys[w[0]].cmp(&keys[w[1]]).is_eq())
        {
            return Err(duplicate(&keys[w[0]]));
        }
        // keys are sorted, so each partition's slice stays sorted
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); t.parts.len()];
        for i in order {
            groups[t.route(&keys[i])].push(i);
        }
        let mut ranked = Vec::new();
        for (p, idx) in groups.into_iter().enumerate() {
            if idx.is_empty() {
                continue;
            }
            let t0 = Instant::now();
            let pkeys: Vec<&[Value]> = idx.iter().map(|&i| keys[i].as_slice()).collect();
            // one partition, with partition-local rids
            let seg = ScanSegment {
                stable: &t.parts[p].stable,
                layers: t.parts[p].layers(),
                rid_base: 0,
                io: t.heat_io(p),
            };
            let got = exec::rank_keys(seg, &pkeys, self.db.clock())?;
            self.note_resolved(table, Some(p), t0, pkeys.len(), got.blocks_decoded);
            let mut hits = got.eq.iter().zip(&pkeys);
            if let Some((_, key)) = hits.find(|(&eq, key)| {
                eq && exempt.binary_search_by(|v| v.as_slice().cmp(key)).is_err()
            }) {
                return Err(duplicate(key));
            }
            ranked.push(Ranked {
                part: p,
                idx,
                base: got.rids,
            });
        }
        Ok(ranked)
    }

    /// APPEND a whole columnar batch of new rows; each row's position
    /// follows from the table's sort order. This is the paper's
    /// `SELECT rid WHERE SK > sk ORDER BY rid LIMIT 1` insert-positioning
    /// flow, amortized: the batch is routed to its partitions by sort-key
    /// range and every touched partition ranks its slice
    /// (`rank`, which also rejects duplicate sort keys)
    /// before a single [`DeltaTxn::stage_batch`] call per partition stages
    /// the statement. Rows need not arrive sorted. Returns the number of
    /// rows appended; on error nothing is staged.
    pub fn append(&mut self, table: &str, mut rows: Batch) -> Result<usize, DbError> {
        let n = rows.num_rows();
        validate_batch_shape(table, self.table(table)?.schema(), &rows)?;
        // stage per partition; a single-partition, already-sorted input
        // (the common bulk-load case — then the only piece) moves straight
        // through, only out-of-order or cross-partition batches pay the
        // gather copy
        for Ranked { part, idx, base } in self.rank(table, &rows, &[])? {
            // final positions include the intra-batch shift: the j-th row
            // of the partition's slice (in key order) lands j places after
            // its pre-batch rank
            let rids: Vec<u64> = base
                .iter()
                .enumerate()
                .map(|(j, &b)| b + j as u64)
                .collect();
            let sub = if idx.len() == n && idx.iter().enumerate().all(|(i, &o)| i == o) {
                std::mem::replace(&mut rows, Batch::empty(&[]))
            } else {
                rows.gather(&idx)
            };
            self.stage_in(table, part, DmlBatch::Insert { rids, rows: sub })?;
        }
        Ok(n)
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
    /// sorted batch appends of 4096 rows each.
    pub fn appender<'t>(&'t mut self, table: &str) -> Result<Appender<'t, 'db>, DbError> {
        let schema = self.table(table)?.schema().clone();
        let types = schema.types();
        Ok(Appender {
            buf: Batch::with_capacity(&types, 0),
            types,
            schema,
            table: table.to_string(),
            txn: self,
            appended: 0,
        })
    }

    /// Columns `cols` of the visible rows at `rids` (sorted ascending and
    /// distinct, global positions), through the sparse gather
    /// ([`exec::gather_rows`]): by position where the update structure is
    /// positional, by a rid-window merge where it is not. A rid past the
    /// visible image is [`DbError::BatchShape`], before any block is read.
    ///
    /// Positional DML resolves its pre-images with it; `pub` as a test
    /// seam, so the gather can be held equal to the scan it replaced —
    /// what `scan_with(ScanSpec::cols(cols))` emits at those positions.
    pub fn gather(&self, table: &str, rids: &[u64], cols: &[usize]) -> Result<Batch, DbError> {
        let t0 = Instant::now();
        let t = self.table(table)?;
        let offsets = t.visible_offsets();
        let visible = offsets.last().copied().unwrap_or(0);
        if let Some(last) = rids.last().filter(|&&r| r >= visible) {
            return Err(batch_shape(
                table,
                format!("rid {last} out of range (visible rows: {visible})"),
            ));
        }
        let got = exec::gather_rows(t.segments(), rids, cols, self.db.clock())?;
        let part_of = |rid: &u64| offsets.partition_point(|o| o <= rid) - 1;
        let (first, last) = (rids.first().map(part_of), rids.last().map(part_of));
        let part = first.filter(|_| first == last);
        self.note_resolved(table, part, t0, rids.len(), got.blocks_decoded);
        Ok(got.rows)
    }

    /// Split a globally-addressed positional statement (`rids` ascending
    /// and distinct) into one piece per touched partition: the partition,
    /// its partition-local rids, and the statement's index range it owns.
    fn split_positional(&self, table: &str, rids: Vec<u64>) -> Result<Vec<Piece>, DbError> {
        let t = self.table(table)?;
        if t.parts.len() == 1 {
            let range = 0..rids.len();
            return Ok(vec![Piece {
                part: 0,
                rids,
                range,
            }]);
        }
        let offsets = t.visible_offsets();
        let local = |range: &Range<usize>, part: usize| {
            let rids = rids[range.clone()].iter();
            rids.map(|&r| r - offsets[part]).collect()
        };
        Ok(split_by_offsets(&offsets, &rids)
            .into_iter()
            .map(|(part, range)| Piece {
                part,
                rids: local(&range, part),
                range,
            })
            .collect())
    }

    /// Per-partition positional delete; `pre` is the
    /// [`PreImageOf::Delete`] projection. Infallible once inputs are
    /// validated, so multi-partition statements stay atomic (nothing
    /// stages after an error).
    fn stage_batch_delete(
        &mut self,
        table: &str,
        rids: Vec<u64>,
        mut pre: Batch,
    ) -> Result<(), DbError> {
        for Piece { part, rids, range } in self.split_positional(table, rids)? {
            let pre = take_rows(&mut pre, range);
            self.stage_in(table, part, DmlBatch::Delete { rids, pre })?;
        }
        Ok(())
    }

    /// Per-partition positional single-column update; `pre` is the
    /// [`PreImageOf::UpdateCol`] projection.
    fn stage_batch_update(
        &mut self,
        table: &str,
        rids: Vec<u64>,
        col: usize,
        mut values: ColumnVec,
        mut pre: Batch,
    ) -> Result<(), DbError> {
        for Piece { part, rids, range } in self.split_positional(table, rids)? {
            let batch = DmlBatch::UpdateCol {
                rids,
                col,
                values: take_range(&mut values, range.clone()),
                pre: take_rows(&mut pre, range),
            };
            self.stage_in(table, part, batch)?;
        }
        Ok(())
    }

    /// DELETE the visible rows at the given positions (any order,
    /// duplicates ignored). The gather fetches what the update structure
    /// keeps of a deleted row, one [`DeltaTxn::stage_batch`] call per
    /// touched partition stages the statement. Returns the number of
    /// deleted rows.
    pub fn delete_rids(&mut self, table: &str, rids: &[u64]) -> Result<usize, DbError> {
        let cols = self.table(table)?.pre_image_cols(PreImageOf::Delete);
        let mut sorted = rids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.is_empty() {
            return Ok(0);
        }
        let pre = self.gather(table, &sorted, &cols)?;
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
        let rewrites_key = t.sk_cols().contains(&col);
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
        let sorted_rids: Vec<u64> = order.iter().map(|&i| rids[i]).collect();
        let mut sorted_vals = ColumnVec::with_capacity(got, values.len());
        for &i in &order {
            sorted_vals.push_owned(values.get(i));
        }
        let n = sorted_rids.len();
        if rewrites_key {
            // the rewritten rows are whole rows: fetch every column
            let all: Vec<usize> = (0..schema.len()).collect();
            let pre = self.gather(table, &sorted_rids, &all)?;
            let mut new_rows = pre.clone();
            new_rows.cols[col] = sorted_vals;
            self.stage_key_rewrite(table, sorted_rids, pre, new_rows)?;
        } else {
            let cols = self.table(table)?.pre_image_cols(PreImageOf::UpdateCol);
            let pre = self.gather(table, &sorted_rids, &cols)?;
            self.stage_batch_update(table, sorted_rids, col, sorted_vals, pre)?;
        }
        Ok(n)
    }

    /// The §2.1 sort-key rewrite shared by [`DbTxn::update_col`] and
    /// [`DbTxn::update_where`]: delete the victims (`pre`, their
    /// full-width pre-images), re-append the rewritten rows (which re-rank
    /// themselves — and re-*route* themselves: a key rewrite may move a row
    /// to a different partition). The new keys must be distinct and must
    /// not collide with any visible row that is not itself a victim: the
    /// ranker checks that **before anything is staged**, so a rejected
    /// statement leaves the transaction untouched — the same atomicity
    /// `append` gives plain inserts.
    fn stage_key_rewrite(
        &mut self,
        table: &str,
        rids: Vec<u64>,
        pre: Batch,
        new_rows: Batch,
    ) -> Result<(), DbError> {
        let t = self.table(table)?;
        let mut victim_keys: Vec<Vec<Value>> = (0..pre.num_rows())
            .map(|i| t.sk_cols().iter().map(|&c| pre.cols[c].get(i)).collect())
            .collect();
        victim_keys.sort();
        let cols = t.pre_image_cols(PreImageOf::Delete);
        self.rank(table, &new_rows, &victim_keys)?;
        self.stage_batch_delete(table, rids, pre.project(&cols))?;
        self.append(table, new_rows)?;
        Ok(())
    }

    /// The victim scan of the predicate forms: the rows of `bounds`
    /// matching `pred`, with their `keep` columns (a pre-image projection)
    /// and the values of `exprs` over them. Scans
    /// `columns(pred) ∪ columns(exprs) ∪ keep` — expressions address table
    /// columns and are re-addressed to the narrower scan.
    fn collect_victims(
        &self,
        table: &str,
        pred: &Expr,
        bounds: ScanBounds,
        keep: &[usize],
        exprs: &[&Expr],
    ) -> Result<Victims, DbError> {
        let t0 = Instant::now();
        let t = self.table(table)?;
        let mut proj: Vec<usize> = pred.columns();
        proj.extend(exprs.iter().flat_map(|e| e.columns()));
        proj.extend_from_slice(keep);
        proj.sort_unstable();
        proj.dedup();
        if proj.is_empty() {
            // a batch needs a column to have a row count
            proj.push(0);
        }
        // every column referenced below is in `proj` by construction
        let at = |c: usize| proj.binary_search(&c).unwrap_or(0);
        let pred = pred.clone().remap_cols(at);
        let exprs: Vec<Expr> = exprs.iter().map(|&e| e.clone().remap_cols(at)).collect();
        let keep_at: Vec<usize> = keep.iter().map(|&c| at(c)).collect();
        let keep_types: Vec<ValueType> = keep.iter().map(|&c| t.schema().vtype(c)).collect();
        let mut out = Victims {
            rids: Vec::new(),
            pre: Batch::empty(&keep_types),
            vals: exprs.iter().map(|_| None).collect(),
        };
        let spec = ScanSpec::cols(proj.clone()).bounds(bounds);
        let mut scan = self.scan_with(table, spec)?;
        while let Some(batch) = scan.try_next_batch()? {
            let idx = pred.select(&batch, (0..batch.num_rows()).collect());
            if idx.is_empty() {
                continue;
            }
            out.rids
                .extend(idx.iter().map(|&i| batch.rid_start + i as u64));
            for (d, &s) in out.pre.cols.iter_mut().zip(&keep_at) {
                d.extend_gather(&batch.cols[s], &idx);
            }
            for (e, acc) in exprs.iter().zip(&mut out.vals) {
                let vals = e.eval(&batch);
                acc.get_or_insert_with(|| ColumnVec::new(vals.vtype()))
                    .extend_gather(&vals, &idx);
            }
        }
        let part = (t.parts.len() == 1).then_some(0);
        self.note_resolved(
            table,
            part,
            t0,
            out.rids.len(),
            scan.counts().blocks_decoded,
        );
        Ok(out)
    }

    /// DELETE rows matching `pred` (an expression over the table's
    /// columns). Returns the number of deleted rows.
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
        let keep = self.table(table)?.pre_image_cols(PreImageOf::Delete);
        let victims = self.collect_victims(table, &pred, bounds, &keep, &[])?;
        let n = victims.rids.len();
        if n > 0 {
            self.stage_batch_delete(table, victims.rids, victims.pre)?;
        }
        Ok(n)
    }

    /// UPDATE rows matching `pred`, assigning each `(column, expression)`
    /// pair (expressions are evaluated over the pre-image row). Sort-key
    /// columns may be assigned: such updates are rewritten as
    /// delete + insert, per §2.1. One victim scan feeds one batched
    /// staging call per assigned column (plain updates), or a batched
    /// delete + batched append (sort-key rewrites). Returns the number of
    /// updated rows.
    pub fn update_where(
        &mut self,
        table: &str,
        pred: Expr,
        sets: Vec<(usize, Expr)>,
    ) -> Result<usize, DbError> {
        let t = self.table(table)?;
        let ncols = t.schema().len();
        if let Some((c, _)) = sets.iter().find(|(c, _)| *c >= ncols) {
            return Err(batch_shape(
                table,
                format!("assigned column #{c} out of range ({ncols} columns)"),
            ));
        }
        let touches_sk = sets.iter().any(|(c, _)| t.sk_cols().contains(c));
        // a key rewrite re-appends whole rows; a plain update keeps what
        // the update structure wants of an updated row
        let keep: Vec<usize> = if touches_sk {
            (0..ncols).collect()
        } else {
            t.pre_image_cols(PreImageOf::UpdateCol)
        };
        let exprs: Vec<&Expr> = sets.iter().map(|(_, e)| e).collect();
        let Victims { rids, pre, vals } =
            self.collect_victims(table, &pred, ScanBounds::default(), &keep, &exprs)?;
        let n = rids.len();
        // every expression was evaluated with the first victim
        let vals: Vec<ColumnVec> = vals.into_iter().flatten().collect();
        if n == 0 {
            return Ok(0);
        }
        if touches_sk {
            // rewrite every victim: new tuple = pre-image + all assignments
            let mut new_rows = Batch::with_capacity(&pre.types(), n);
            for i in 0..n {
                let mut row = pre.row(i);
                for ((c, _), vals) in sets.iter().zip(&vals) {
                    row[*c] = vals.get(i);
                }
                new_rows.push_owned_row(row);
            }
            self.stage_key_rewrite(table, rids, pre, new_rows)?;
        } else {
            // one staged batch per assigned column; the last one takes the
            // shared rid/pre-image payload by move, so the common
            // single-column statement never clones it
            let (mut rids, mut pre) = (rids, pre);
            for (j, ((col, _), vals)) in sets.iter().zip(vals).enumerate() {
                let (r, p) = if j + 1 == sets.len() {
                    let p = std::mem::replace(&mut pre, Batch::empty(&[]));
                    (std::mem::take(&mut rids), p)
                } else {
                    (rids.clone(), pre.clone())
                };
                self.stage_batch_update(table, r, *col, vals, p)?;
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
        // the commit event's partitions and WAL entries (`entries` is
        // consumed by publish)
        let parts = entries.len() as u64;
        let wal_entries: u64 = entries.iter().map(|(_, _, e)| e.len() as u64).sum();
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
        // Group commit phase B: acknowledge only once the record is
        // written to the log. The commit is visible before it is durable;
        // a crash in the window loses only commits whose `commit()` never
        // returned.
        if let Some(ticket) = wal_ticket {
            mgr.wait_wal_durable(ticket).map_err(DbError::Io)?;
        }
        if let Some(t0) = trace_start {
            obs::event!(
                obs::TraceKind::Commit,
                seq: seq,
                dur_ns: t0.elapsed().as_nanos() as u64,
                a: parts,
                b: wal_entries,
            );
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
/// in a columnar buffer and flush as one [`DbTxn::append`] per 4096
/// rows, so a row-at-a-time producer still writes through the batched
/// path. Call [`Appender::finish`] to flush the tail and get the
/// total row count; dropping an unfinished appender discards only the
/// *unflushed* tail (flushed batches are staged in the transaction like
/// any other statement).
pub struct Appender<'t, 'db> {
    txn: &'t mut DbTxn<'db>,
    table: String,
    schema: Schema,
    types: Vec<ValueType>,
    buf: Batch,
    appended: usize,
}

impl<'t, 'db> Appender<'t, 'db> {
    const BATCH_ROWS: usize = 4096;

    /// Buffer one row, flushing a full batch through [`DbTxn::append`].
    pub fn push(&mut self, row: Tuple) -> Result<(), DbError> {
        validate_tuple(&self.table, &self.schema, &row)?;
        self.buf.push_owned_row(row);
        if self.buf.num_rows() >= Self::BATCH_ROWS {
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
fn record_delta_heat(stable: &StableTable, heat: &PartitionHeat, batch: &DmlBatch) {
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
    let n = stable.row_count();
    if n == 0 || stable.num_blocks() == 0 {
        heat.record_delta_span(0, 0, bytes);
        return;
    }
    let b0 = stable.block_of(first.min(n - 1));
    let b1 = stable.block_of(last.min(n - 1));
    heat.record_delta_span(b0, b1, bytes);
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

/// One partition's share of a routed write batch (see `DbTxn::rank`).
pub(crate) struct Ranked {
    /// The partition.
    pub(crate) part: usize,
    /// The batch's row indices the partition owns, in key order.
    pub(crate) idx: Vec<usize>,
    /// Each one's partition-local base rid.
    pub(crate) base: Vec<u64>,
}

/// One partition's share of a positional statement (see
/// [`DbTxn::split_positional`]).
struct Piece {
    part: usize,
    /// Partition-local rids.
    rids: Vec<u64>,
    /// The statement's index range the partition owns.
    range: Range<usize>,
}

/// The victims of a predicate statement (see
/// [`DbTxn::collect_victims`]).
struct Victims {
    /// Ascending global positions.
    rids: Vec<u64>,
    /// The requested pre-image columns, in `rids` order.
    pre: Batch,
    /// Per requested expression, its values over the victims (`None`
    /// while no victim has been seen).
    vals: Vec<Option<ColumnVec>>,
}

/// Rows `range` of `src` as their own column: the whole column moves out
/// (a statement with one piece never copies its payload), a proper slice
/// is copied.
fn take_range(src: &mut ColumnVec, range: Range<usize>) -> ColumnVec {
    let mut out = src.empty_like();
    if range == (0..src.len()) {
        std::mem::swap(src, &mut out);
    } else {
        out.extend_range(src, range.start, range.end);
    }
    out
}

/// [`take_range`] over every column of a batch (the per-partition slice
/// of a positional statement's payload).
fn take_rows(src: &mut Batch, range: Range<usize>) -> Batch {
    Batch {
        cols: src
            .cols
            .iter_mut()
            .map(|c| take_range(c, range.clone()))
            .collect(),
        rid_start: 0,
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

    /// 400 rows in 50 blocks whose payload blocks dwarf their key blocks
    /// (so a statement's bytes tell which column it read), under committed
    /// updates: a flushed layer and an unflushed one on a PDT table.
    fn shape_db(policy: UpdatePolicy) -> Database {
        let db = Database::new();
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let big = |i: i64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15_u64 as i64) >> 1;
        let rows: Vec<Tuple> = (0..400)
            .map(|i| vec![Value::Int(i * 10), Value::Int(big(i))])
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
        for (round, base) in [(0, 3u64), (1, 5)] {
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(1285 + round), Value::Int(1)])
                .unwrap();
            let rids: Vec<u64> = (0..6).map(|j| base + 61 * j).collect();
            t.update_col("t", &rids, 1, ColumnVec::Int(vec![7; 6]))
                .unwrap();
            t.delete_rids("t", &[base + 200, base + 201]).unwrap();
            t.commit().unwrap();
            if round == 0 {
                db.maybe_flush("t", 0).unwrap();
            }
        }
        db
    }

    /// Largest key-column block and smallest payload-column block of `t`.
    fn key_and_payload_block_bytes(db: &Database) -> (u64, u64) {
        let stable = db.stable_single("t").unwrap();
        let bytes = |c: usize| stable.column_blocks(c).iter().map(|b| b.stored_bytes());
        let (key_max, payload_min) = (bytes(0).max().unwrap(), bytes(1).min().unwrap());
        assert!(key_max < payload_min, "{key_max} vs {payload_min}");
        (key_max, payload_min)
    }

    #[test]
    fn pdt_update_col_reads_no_stable_byte() {
        let db = shape_db(UpdatePolicy::Pdt);
        let decoded = db.metrics().value("db.dml.blocks_decoded");
        let mut t = db.begin();
        let before = db.io().stats();
        let rids: Vec<u64> = (0..20).map(|j| 2 + 19 * j).collect();
        t.update_col("t", &rids, 1, ColumnVec::Int(vec![-1; 20]))
            .unwrap();
        // out of range is still caught — before, not by, a block read
        assert!(matches!(
            t.update_col("t", &[9999], 1, ColumnVec::Int(vec![0])),
            Err(DbError::BatchShape { .. })
        ));
        let io = db.io().stats().since(&before);
        assert_eq!((io.blocks_read, io.bytes_read), (0, 0));
        t.commit().unwrap();
        assert_eq!(db.metrics().value("db.dml.blocks_decoded"), decoded);
    }

    #[test]
    fn pdt_delete_rids_reads_only_the_victims_key_blocks() {
        let db = shape_db(UpdatePolicy::Pdt);
        let (key_max, _) = key_and_payload_block_bytes(&db);
        let m = db.metrics();
        let resolved = m.value("db.dml.rids_resolved").unwrap();
        let decoded = m.value("db.dml.blocks_decoded").unwrap();
        let mut t = db.begin();
        let before = db.io().stats();
        let rids: Vec<u64> = vec![4, 77, 150, 222, 301, 388];
        assert_eq!(t.delete_rids("t", &rids).unwrap(), 6);
        let io = db.io().stats().since(&before);
        assert!(io.blocks_read >= 1 && io.blocks_read <= 6, "{io:?}");
        // key-column blocks only: a payload block alone would exceed this
        assert!(io.bytes_read <= io.blocks_read * key_max, "{io:?}");
        t.commit().unwrap();
        let m = db.metrics();
        assert_eq!(m.value("db.dml.rids_resolved"), Some(resolved + 6));
        assert_eq!(
            m.value("db.dml.blocks_decoded"),
            Some(decoded + io.blocks_read)
        );
    }

    #[test]
    fn pdt_append_reads_two_key_blocks_per_key_plus_one() {
        let db = shape_db(UpdatePolicy::Pdt);
        let (key_max, _) = key_and_payload_block_bytes(&db);
        let mut t = db.begin();
        let before = db.io().stats();
        // five keys far apart, plus one below and one past every block
        let new = [-5i64, 333, 1111, 1999, 2777, 3555, 9999];
        let rows: Vec<Tuple> = new
            .iter()
            .map(|&k| vec![Value::Int(k), Value::Int(0)])
            .collect();
        assert_eq!(
            t.append("t", Batch::from_rows(&int_types(), &rows))
                .unwrap(),
            7
        );
        let io = db.io().stats().since(&before);
        assert!(io.blocks_read <= 2 * 7 + 1, "{io:?}");
        assert!(io.bytes_read <= io.blocks_read * key_max, "{io:?}");
        t.commit().unwrap();
        let ks = keys(&db);
        assert!(ks.windows(2).all(|w| w[0] < w[1]));
        assert!(new.iter().all(|k| ks.contains(k)));
    }

    #[test]
    fn pdt_append_decodes_one_key_block_per_block_its_keys_land_in() {
        let db = shape_db(UpdatePolicy::Pdt);
        let (key_max, _) = key_and_payload_block_bytes(&db);
        let stable = db.stable_single("t").unwrap();
        // the block each key's lower bound lands in, by the zone map; none
        // for a key above every block's maximum
        let landing = |keys: &[i64]| {
            let maxes = stable.block_max_keys();
            let mut blocks: Vec<usize> = keys
                .iter()
                .map(|&k| maxes.partition_point(|m| m.as_slice() < [Value::Int(k)].as_slice()))
                .filter(|&b| b < maxes.len())
                .collect();
            blocks.dedup();
            blocks.len() as u64
        };
        // two keys per block, keys just past a block's maximum (they land
        // in the next one), one below and two past every block
        let new = [-5i64, 333, 334, 1111, 1999, 2001, 2777, 9999, 10_001];
        let mut t = db.begin();
        for (keys, want) in [(&new[..], 5), (&new[7..], 0)] {
            assert_eq!(landing(keys), want);
            let before = db.io().stats();
            let decoded = db.metrics().value("db.dml.blocks_decoded");
            let rows: Vec<Tuple> = keys
                .iter()
                .map(|&k| vec![Value::Int(k), Value::Int(0)])
                .collect();
            // the second round's keys collide with the first's
            let got = t.append("t", Batch::from_rows(&int_types(), &rows));
            let io = db.io().stats().since(&before);
            assert_eq!(io.blocks_read, want, "{keys:?}: {io:?}");
            assert!(io.bytes_read <= want * key_max, "{io:?}");
            // the resolution reports what it decoded
            let reported = db.metrics().value("db.dml.blocks_decoded");
            assert_eq!(reported, decoded.map(|d| d + want));
            if want == 0 {
                assert!(matches!(got, Err(DbError::DuplicateKey { .. })));
            } else {
                assert_eq!(got.unwrap(), keys.len());
            }
        }
        t.commit().unwrap();
        let ks = keys(&db);
        assert!(ks.windows(2).all(|w| w[0] < w[1]));
        assert!(new.iter().all(|k| ks.contains(k)));
    }

    #[test]
    fn value_stores_resolve_positions_by_merging_the_window() {
        // no positional index: the same statements succeed, and read every
        // block of every column from the first up to the last victim
        for policy in VALUE_STORES {
            let db = shape_db(policy);
            let (_, payload_min) = key_and_payload_block_bytes(&db);
            let mut t = db.begin();
            let before = db.io().stats();
            assert_eq!(t.delete_rids("t", &[150, 222]).unwrap(), 2);
            let io = db.io().stats().since(&before);
            // rid 222 lies in block 27 or 28: ~28 blocks of 2 columns
            assert!(io.blocks_read >= 2 * 27, "{policy:?}: {io:?}");
            assert!(io.bytes_read >= 27 * payload_min, "{policy:?}: {io:?}");
            let before = db.io().stats();
            t.update_col("t", &[100, 180], 1, ColumnVec::Int(vec![1, 2]))
                .unwrap();
            let io = db.io().stats().since(&before);
            assert!(io.blocks_read >= 2 * 22, "{policy:?}: {io:?}");
            t.append(
                "t",
                Batch::from_rows(&int_types(), &[vec![Value::Int(1111), Value::Int(0)]]),
            )
            .unwrap();
            t.commit().unwrap();
            assert_eq!(keys(&db).len(), 400 + 2 - 4 - 2 + 1, "{policy:?}");
        }
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
            let mut app = t.appender("t").unwrap();
            // two full batches and a tail, in scrambled key order (7919 is
            // prime, so `i * 7919 % n` permutes `0..n`)
            let n = 2 * Appender::BATCH_ROWS as i64 + 808;
            for i in 0..n {
                let k = (i * 7919 % n) * 10 + 5;
                app.push(vec![Value::Int(k), Value::Int(0)]).unwrap();
            }
            assert_eq!(app.finish().unwrap(), n as usize);
            t.commit().unwrap();
            let ks = keys(&db);
            assert_eq!(ks.len(), n as usize + 5, "{policy:?}");
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
        // unknown name errors, and a filter over a column the projection lacks
        assert!(matches!(
            view.scan_with("t", crate::ScanSpec::named(["ghost"])),
            Err(DbError::UnknownColumn { .. })
        ));
        let outside = exec::expr::col(1).gt(exec::expr::lit(0i64));
        assert!(matches!(
            view.scan_with("t", crate::ScanSpec::cols(vec![1]).filter(outside)),
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
        // the table runs on a store whose layers stay in sight
        let db = Database::new();
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let store = crate::PdtStore::new(db.txn_mgr.clone(), "t".into(), schema.clone(), vec![0]);
        db.create_table_with(
            TableMeta::new("t", schema, vec![0]),
            TableOptions::default().with_block_rows(8),
            (0..10i64)
                .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
                .collect(),
            |_, _, _| Arc::new(store.clone()),
        )
        .unwrap();
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
        assert!(matches!(b.commit(), Err(DbError::Conflict { .. })));
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
