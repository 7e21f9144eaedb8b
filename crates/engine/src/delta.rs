//! # The unified update-structure interface
//!
//! The paper's central comparison — positional (PDT) against value-based
//! (VDT) differential maintenance — only means something when both
//! structures sit behind the *same* lifecycle. This module defines that
//! lifecycle as three traits and gives each structure an implementation:
//!
//! * [`DeltaStore`] — one instance per table, chosen at `create_table` time
//!   via [`UpdatePolicy`]. Covers committed-state snapshots, the two-phase
//!   commit protocol (prepare → publish, driven by [`crate::DbTxn`] under
//!   the manager's commit guard), WAL flattening and replay, memory
//!   accounting for the Propagate policy, and checkpointing into a fresh
//!   stable image.
//! * [`DeltaSnapshot`] — an immutable capture of the committed delta state,
//!   from which scans obtain their [`DeltaLayers`].
//! * [`DeltaTxn`] — a transaction's private staging area: `stage_insert` /
//!   `stage_delete` / `stage_modify` mirror the DML statements, and
//!   `layers` lets the transaction's own scans see its uncommitted updates.
//!
//! [`PdtStore`] delegates to the [`TxnManager`]'s stacked-PDT machinery
//! (Read/Write/Trans layers, Serialize/Propagate commits — §3.3).
//! [`VdtStore`] gives the value-based baseline the *same* transactional
//! treatment the paper's VDT lacks in most systems: staged ops, snapshot
//! isolation from an immutable committed tree, key-addressed write-write
//! conflict detection on replay, and WAL-logged commits. The third backend,
//! [`crate::RowStore`](crate::rowstore::RowStore), stages updates in a
//! copy-on-write row buffer with per-commit versioned runs — the classic
//! delta-store model — again with zero call-site changes; three
//! independently implemented structures behind one lifecycle are what the
//! differential test harness ([`crate::testkit`]) leans on.

use crate::batch::DmlBatch;
use crate::DbError;
use columnar::{ColumnVec, ColumnarError, IoTracker, StableTable, TableBuilder, Tuple, Value};
use exec::DeltaLayers;
use parking_lot::RwLock;
use pdt::Pdt;
use std::any::Any;
use std::borrow::Cow;
use std::sync::Arc;
use txn::wal::{self, WalEntry};
use txn::TxnManager;
use vdt::{Vdt, VdtOp};

/// Which differential structure maintains a table (per-table, chosen at
/// [`crate::Database::create_table`] time through [`crate::TableOptions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdatePolicy {
    /// Positional Delta Trees under snapshot-isolation transactions (the
    /// paper's contribution; the default).
    #[default]
    Pdt,
    /// The value-based delta baseline (insert/delete trees keyed by sort
    /// key), behind the same transactional interface.
    Vdt,
    /// The classic delta-store baseline: an uncompressed copy-on-write row
    /// buffer with per-commit versioned runs, behind the same transactional
    /// interface.
    RowStore,
}

/// Every update policy, in a fixed order — drives the differential test
/// harness and policy-parametrized tests.
pub const ALL_POLICIES: [UpdatePolicy; 3] =
    [UpdatePolicy::Pdt, UpdatePolicy::Vdt, UpdatePolicy::RowStore];

/// An in-flight checkpoint of one partition: the committed delta state
/// pinned by [`DeltaStore::checkpoint_pin`] (phase 1, under the commit
/// guard), carried across the off-lock stable rewrite
/// ([`DeltaStore::checkpoint_merge`]) to the installation of the new image
/// ([`DeltaStore::checkpoint_install`], under the commit guard again).
pub struct CheckpointPin {
    /// Global commit sequence at pin time: every commit at or below it is
    /// covered by the checkpoint (folded into the merged image or carried
    /// in its residual); every later one stays on top after install. Also
    /// the sequence the WAL checkpoint marker carries.
    pub seq: u64,
    state: Box<dyn Any + Send>,
}

impl CheckpointPin {
    /// Pin at commit sequence `seq` carrying store-private `state`.
    pub fn new(seq: u64, state: impl Any + Send) -> Self {
        CheckpointPin {
            seq,
            state: Box::new(state),
        }
    }

    pub(crate) fn state<T: Any>(&self) -> &T {
        self.state
            .downcast_ref::<T>()
            .expect("checkpoint pin handed back to a foreign store")
    }
}

/// The target of a checkpoint: stable blocks `[b0, b1)` of one partition,
/// with the positional window and key bounds the three stores classify
/// their delta against. Built by the engine from the stable image
/// captured at pin time. A whole-partition checkpoint is the range over
/// every block — nothing about it is special-cased, the bounds simply
/// come out unbounded.
#[derive(Debug, Clone)]
pub struct CompactRange {
    /// First stable block of the merge unit.
    pub b0: usize,
    /// One past the last stable block of the merge unit. `b0 == b1` is
    /// only meaningful at the end of the image: the unit then holds no
    /// stable row and folds just the append gap.
    pub b1: usize,
    /// First stable SID of the window (`block_range(b0).0`).
    pub s0: u64,
    /// One past the last stable SID (`block_range(b1).0`).
    pub s1: u64,
    /// `row_count()` of the captured stable — `s1 == row_count` means
    /// the window ends at the last block, so trailing inserts fold too.
    pub row_count: u64,
    /// Exclusive lower key bound for value-addressed stores: the max
    /// sort key of block `b0 - 1`. `None` at the partition's first
    /// block (unbounded below).
    pub lo: Option<Vec<Value>>,
    /// Inclusive upper key bound: the max sort key of block `b1 - 1`.
    /// `None` when the window ends at the last block (unbounded above —
    /// appends beyond the image fold here).
    pub hi: Option<Vec<Value>>,
}

impl CompactRange {
    /// Blocks `[b0, b1)` of `stable`. The caller has checked
    /// `b0 <= b1 <= num_blocks`.
    pub fn of(stable: &StableTable, b0: usize, b1: usize) -> Self {
        CompactRange {
            b0,
            b1,
            s0: stable.block_range(b0).0,
            s1: stable.block_range(b1).0,
            row_count: stable.row_count(),
            lo: (b0 > 0).then(|| stable.block_sk_bounds(b0 - 1).1.to_vec()),
            hi: (b1 < stable.num_blocks()).then(|| stable.block_sk_bounds(b1 - 1).1.to_vec()),
        }
    }

    /// Does the window end at the partition's last block, folding the
    /// append gap at `row_count` as well?
    pub fn folds_tail(&self) -> bool {
        self.s1 == self.row_count
    }

    /// No key bound on either side: every key is in the window, so a
    /// value-addressed store folds its pinned structure as it stands.
    pub fn covers_all_keys(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }

    /// Key-window test for value-addressed stores: sort keys strictly
    /// above `lo` and at most `hi` merge into the window's blocks;
    /// everything else stays in the residual delta. Prefix comparison —
    /// bounds may be key prefixes of the full sort key.
    pub fn key_in_window(&self, key: &[Value]) -> bool {
        let above = self.lo.as_deref().is_none_or(|lo| {
            key.iter().cmp(lo.iter().take(key.len())) == std::cmp::Ordering::Greater
        });
        let below = self.hi.as_deref().is_none_or(|hi| {
            key.iter().cmp(hi.iter().take(key.len())) != std::cmp::Ordering::Greater
        });
        above && below
    }
}

/// Result of [`DeltaStore::checkpoint_merge`]: the image with the range's
/// blocks rewritten, the residual delta flattened for the WAL marker, and
/// store-private install state carried to
/// [`DeltaStore::checkpoint_install`].
pub struct RangeMerge {
    /// The stable image with the range's delta folded in and every other
    /// block kept. `None` when nothing addressed the range (e.g. the row
    /// store's insert-then-delete churn nets out): the current image
    /// already is the merged one, nothing is published or logged, and
    /// install only retires what the pin covered.
    pub fresh: Option<StableTable>,
    /// The out-of-window delta as loggable entries — what the WAL marker
    /// carries so recovery can rebuild the residual over the new image.
    pub residual_entries: Vec<WalEntry>,
    state: Box<dyn Any + Send>,
}

impl RangeMerge {
    /// Package a merge with store-private install `state`.
    pub fn new(
        fresh: Option<StableTable>,
        residual_entries: Vec<WalEntry>,
        state: impl Any + Send,
    ) -> Self {
        RangeMerge {
            fresh,
            residual_entries,
            state: Box::new(state),
        }
    }

    pub(crate) fn into_state<T: Any>(self) -> T {
        *self
            .state
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("range merge handed back to a foreign store"))
    }
}

/// Rewrite the blocks of `range`: materialize their rows, let `merge` fold
/// a value-addressed delta into them, and splice the result between the
/// kept neighbours (the merge step of both value stores' checkpoints).
pub(crate) fn rewrite_range(
    stable: &StableTable,
    range: &CompactRange,
    io: &IoTracker,
    merge: impl FnOnce(&[Tuple]) -> Vec<Tuple>,
) -> Result<StableTable, ColumnarError> {
    let ncols = stable.num_columns();
    let mut rows = Vec::new();
    for b in range.b0..range.b1 {
        let cols: Vec<ColumnVec> = (0..ncols)
            .map(|c| stable.read_block(c, b, io))
            .collect::<Result<_, _>>()?;
        let n = cols.first().map_or(0, ColumnVec::len);
        rows.reserve(n);
        for i in 0..n {
            rows.push(cols.iter().map(|c| c.get(i)).collect());
        }
    }
    let mut builder = TableBuilder::splice(stable, range.b0, range.b1)?;
    for row in merge(&rows) {
        builder.append(&row)?;
    }
    builder.finish()
}

/// Flatten a value-addressed residual (delete keys + insert tuples, each
/// key-sorted) into loggable entries: deletes first, then inserts, so
/// replaying through [`apply_key_entries`] reconstructs the structure
/// exactly (an insert over its own delete key re-hides the stable row).
pub(crate) fn key_residual_entries(dels: Vec<Vec<Value>>, inss: Vec<Tuple>) -> Vec<WalEntry> {
    let mut entries = Vec::new();
    match dels.len() {
        0 => {}
        1 => entries.push(WalEntry {
            sid: 0,
            kind: pdt::DEL,
            values: dels.into_iter().next().unwrap(),
        }),
        _ => entries.push(WalEntry {
            sid: 0,
            kind: pdt::DEL_BATCH,
            values: dels.into_iter().flatten().collect(),
        }),
    }
    match inss.len() {
        0 => {}
        1 => entries.push(WalEntry {
            sid: 0,
            kind: pdt::INS,
            values: inss.into_iter().next().unwrap(),
        }),
        _ => entries.push(WalEntry {
            sid: 0,
            kind: pdt::INS_BATCH,
            values: inss.into_iter().flatten().collect(),
        }),
    }
    entries
}

/// A value-addressed structure that key-addressed WAL entries apply to.
pub(crate) trait KeyEntrySink {
    fn apply_insert(&mut self, tuple: Vec<Value>);
    /// Apply one logged batch of inserts. Default: row loop; structures
    /// with a cheaper bulk path override it.
    fn apply_insert_batch(&mut self, tuples: Vec<Tuple>) {
        for t in tuples {
            self.apply_insert(t);
        }
    }
    fn apply_delete(&mut self, key: &[Value]);
    /// `(tuple width, sort-key width)` — the chunk sizes that slice a
    /// batched entry's flat value payload back into rows and keys.
    fn entry_widths(&self) -> (usize, usize);
}

impl KeyEntrySink for Vdt {
    fn apply_insert(&mut self, tuple: Vec<Value>) {
        self.insert(tuple);
    }

    fn apply_insert_batch(&mut self, tuples: Vec<Tuple>) {
        self.insert_batch(tuples);
    }

    fn apply_delete(&mut self, key: &[Value]) {
        self.delete(key);
    }

    fn entry_widths(&self) -> (usize, usize) {
        (self.schema().len(), self.sk_cols().len())
    }
}

/// Apply engine-generated key-addressed WAL entries (`INS` carries the
/// full tuple, `DEL` the sort key, `INS_BATCH`/`DEL_BATCH` whole
/// statements' worth of either) to a value-addressed structure — the one
/// replay loop shared by WAL recovery and the checkpoint-residual
/// rebuilds of both value stores. Panics on any other kind: value stores
/// never log modifies (they flatten them to delete + insert).
pub(crate) fn apply_key_entries(entries: &[WalEntry], sink: &mut impl KeyEntrySink) {
    let (tuple_width, key_width) = sink.entry_widths();
    for e in entries {
        if e.kind == pdt::INS {
            sink.apply_insert(e.values.clone());
        } else if e.kind == pdt::DEL {
            sink.apply_delete(&e.values);
        } else if e.kind == pdt::INS_BATCH {
            sink.apply_insert_batch(
                e.values
                    .chunks(tuple_width)
                    .map(<[Value]>::to_vec)
                    .collect(),
            );
        } else if e.kind == pdt::DEL_BATCH {
            for key in e.values.chunks(key_width) {
                sink.apply_delete(key);
            }
        } else {
            panic!(
                "value-store WAL replay: unexpected modify entry (kind {})",
                e.kind
            );
        }
    }
}

/// Pin-gated retention of commit WAL flattenings, shared by both value
/// stores' checkpoint protocols. While a checkpoint is in flight (between
/// pin and install/abort) every published commit's key-addressed entries
/// are recorded; at install the entries with sequence above the pin — the
/// commits that landed during the off-lock merge — rebuild the residual
/// delta over the new image. Raw staged ops would not do: their pre-images
/// can predate a commit the pin already folded into the image. Gating on
/// the pin bounds the memory to the merge window, so a database that never
/// checkpoints retains nothing.
pub(crate) struct ResidualLog {
    pinned_at: Option<u64>,
    log: Vec<(u64, Vec<WalEntry>)>,
}

impl ResidualLog {
    pub(crate) fn new() -> Self {
        ResidualLog {
            pinned_at: None,
            log: Vec::new(),
        }
    }

    /// Start retaining (checkpoint pinned at `seq`). Per-table maintenance
    /// is serialized by the engine, so no pin can already be in flight.
    pub(crate) fn pin(&mut self, seq: u64) {
        debug_assert!(
            self.pinned_at.is_none() && self.log.is_empty(),
            "checkpoint pinned while another pin is in flight"
        );
        self.pinned_at = Some(seq);
    }

    /// Record one published commit (no-op unless a pin is in flight).
    pub(crate) fn record(&mut self, seq: u64, entries: &[WalEntry]) {
        if self.pinned_at.is_some() && !entries.is_empty() {
            self.log.push((seq, entries.to_vec()));
        }
    }

    /// Replay the retained commits with sequence above `pin_seq` into
    /// `sink` — the residual delta over the checkpointed image.
    pub(crate) fn rebuild_into(&self, pin_seq: u64, sink: &mut impl KeyEntrySink) {
        for (_, entries) in self.log.iter().filter(|(s, _)| *s > pin_seq) {
            apply_key_entries(entries, sink);
        }
    }

    /// End the pin window (after install, or on a failed merge) and drop
    /// the retained entries.
    pub(crate) fn unpin(&mut self) {
        self.pinned_at = None;
        self.log.clear();
    }
}

/// Immutable committed-state capture used by read views.
pub trait DeltaSnapshot: Send + Sync {
    /// The delta layers a scan over the stable image must merge.
    fn layers(&self) -> DeltaLayers<'_>;
    /// Net visible-row change relative to the stable image.
    fn delta_total(&self) -> i64;
    /// Downcast seam for store-specific test assertions.
    fn as_any(&self) -> &dyn Any;
}

/// A transaction's private staging area for one table.
pub trait DeltaTxn: Send {
    /// Delta layers including this transaction's own staged updates.
    fn layers(&self) -> DeltaLayers<'_>;
    /// Net visible-row change including staged updates.
    fn delta_total(&self) -> i64;
    /// Has anything been staged?
    fn is_dirty(&self) -> bool;
    /// Stage an insert of `tuple` at visible position `rid`.
    fn stage_insert(&mut self, rid: u64, tuple: &[Value]);
    /// Stage deletion of the visible row `row` at position `rid`.
    fn stage_delete(&mut self, rid: u64, row: &[Value]);
    /// Stage `row[col] = value` for the visible row `row` at `rid`.
    fn stage_modify(&mut self, rid: u64, col: usize, value: &Value, row: &[Value]);
    /// Stage one whole batched statement (see [`DmlBatch`] for the
    /// invariants the engine upholds). The default is the row loop every
    /// structure is correct under — inserts in application order, deletes
    /// in descending rid order so earlier positions stay valid; the
    /// concrete stores override it with vectorized paths (one sorted-run
    /// merge per batch for the row store, one op-log/WAL entry per batch
    /// for the value stores).
    fn stage_batch(&mut self, batch: &DmlBatch) {
        match batch {
            DmlBatch::Insert { rids, rows } => {
                for (i, &rid) in rids.iter().enumerate() {
                    self.stage_insert(rid, &rows.row(i));
                }
            }
            DmlBatch::Delete { rids, pre } => {
                for (i, &rid) in rids.iter().enumerate().rev() {
                    self.stage_delete(rid, &pre.row(i));
                }
            }
            DmlBatch::UpdateCol {
                rids,
                col,
                values,
                pre,
            } => {
                for (i, &rid) in rids.iter().enumerate() {
                    self.stage_modify(rid, *col, &values.get(i), &pre.row(i));
                }
            }
        }
    }
    /// Downcast seam for store-specific test assertions.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast seam.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// One table's update structure: the full differential-maintenance
/// lifecycle behind a single interface.
///
/// The commit protocol is two-phase and driven by [`crate::DbTxn::commit`]
/// under [`TxnManager::commit_guard`]: `prepare` every touched table
/// (validating against concurrently committed updates — any failure aborts
/// the whole transaction before anything is visible), flatten
/// `wal_entries`, log them, then `publish` every table at one commit
/// sequence number.
pub trait DeltaStore: Send + Sync {
    /// Which structure this store maintains.
    fn policy(&self) -> UpdatePolicy;
    /// Capture the committed delta state for reads.
    fn snapshot(&self) -> Arc<dyn DeltaSnapshot>;
    /// Open a staging area on top of a snapshot taken at transaction begin
    /// (`start_seq` is the global commit sequence observed then).
    fn begin(&self, snap: &Arc<dyn DeltaSnapshot>, start_seq: u64) -> Box<dyn DeltaTxn>;
    /// Commit phase 1: validate the staged updates against everything
    /// committed since `start_seq`, rewriting them into publishable form.
    fn prepare(&self, staged: &mut dyn DeltaTxn) -> Result<(), DbError>;
    /// The staged updates flattened for the write-ahead log (call after
    /// `prepare`).
    fn wal_entries(&self, staged: &dyn DeltaTxn) -> Vec<WalEntry>;
    /// Commit phase 2: atomically make the prepared updates visible at
    /// commit sequence `seq`. `entries` is the commit's WAL flattening for
    /// this table (as produced by [`DeltaStore::wal_entries`]) — stores
    /// that checkpoint by residual replay retain it until the next
    /// checkpoint covers it. Infallible — all validation happened in
    /// `prepare`.
    fn publish(&self, staged: Box<dyn DeltaTxn>, seq: u64, entries: &[WalEntry]);
    /// Recovery: re-apply one logged commit's entries for this table.
    fn replay(&self, entries: &[WalEntry]);
    /// Bytes held by the write-optimised layer (the Propagate policy input
    /// for [`crate::Database::maybe_flush`]).
    fn write_bytes(&self) -> usize;
    /// Total bytes held by all committed delta layers — the checkpoint
    /// budget input of the maintenance scheduler.
    fn delta_bytes(&self) -> usize;
    /// Migrate the write-optimised layer into the read-optimised one.
    /// Returns whether anything moved (single-layer structures return
    /// `false`).
    fn flush(&self) -> bool;
    /// Checkpoint phase 1 (cheap; run under the commit guard): pin the
    /// committed delta state that the checkpoint will fold into the stable
    /// image. `seq` is the global commit sequence at pin time. Returns
    /// `None` when there is nothing to checkpoint. Callers must serialize
    /// per-partition maintenance: between a pin and its install only
    /// commits may touch this store — never a flush or another checkpoint.
    fn checkpoint_pin(&self, seq: u64) -> Option<CheckpointPin>;
    /// Checkpoint phase 2 (run OFF every lock — commits and new read views
    /// proceed concurrently): fold exactly the part of the pinned delta
    /// addressing `range` into fresh blocks spliced between the kept ones,
    /// and flatten the out-of-range remainder into residual WAL entries
    /// (for the marker) plus store-private install state. On `Err` the
    /// caller must `checkpoint_abort` the pin.
    fn checkpoint_merge(
        &self,
        pin: &CheckpointPin,
        stable: &StableTable,
        range: &CompactRange,
        io: &IoTracker,
    ) -> Result<RangeMerge, DbError>;
    /// Checkpoint phase 3 (cheap; under the commit guard, atomically with
    /// the stable-image swap): replace the pinned delta with the merge's
    /// out-of-range residual, positions rebased onto the new image.
    /// Commits published during the merge — sequence > `pin.seq` —
    /// survive on top.
    fn checkpoint_install(&self, pin: CheckpointPin, merge: RangeMerge);
    /// Abandon an in-flight checkpoint whose merge (or marker append)
    /// failed: release any pin-window state without touching the delta —
    /// the partition must be left exactly as if the checkpoint never
    /// started, ready for the next attempt. Default: stateless pins need
    /// nothing.
    fn checkpoint_abort(&self, _pin: CheckpointPin) {}
}

// --- Positional store ---------------------------------------------------

/// [`DeltaStore`] over stacked PDTs, delegating to the shared
/// [`TxnManager`] (which owns the Read/Write layers, the TZ conflict set
/// and the commit sequence for all PDT tables).
pub struct PdtStore {
    mgr: Arc<TxnManager>,
    table: String,
}

impl PdtStore {
    /// The PDT store of `table`, registered with `mgr`.
    pub fn new(mgr: Arc<TxnManager>, table: String) -> Self {
        PdtStore { mgr, table }
    }
}

struct PdtSnapshot {
    read: Arc<Pdt>,
    write: Arc<Pdt>,
}

impl PdtSnapshot {
    fn stack<'a>(read: &'a Pdt, write: &'a Pdt, trans: Option<&'a Pdt>) -> DeltaLayers<'a> {
        let mut layers = Vec::with_capacity(3);
        if !read.is_empty() {
            layers.push(read);
        }
        if !write.is_empty() {
            layers.push(write);
        }
        if let Some(t) = trans {
            if !t.is_empty() {
                layers.push(t);
            }
        }
        if layers.is_empty() {
            DeltaLayers::None
        } else {
            DeltaLayers::Pdt(layers)
        }
    }
}

impl DeltaSnapshot for PdtSnapshot {
    fn layers(&self) -> DeltaLayers<'_> {
        Self::stack(&self.read, &self.write, None)
    }

    fn delta_total(&self) -> i64 {
        self.read.delta_total() + self.write.delta_total()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct PdtTxn {
    read: Arc<Pdt>,
    write: Arc<Pdt>,
    /// The transaction's private Trans-PDT (eq. (9)'s top layer).
    trans: Pdt,
    start_seq: u64,
    /// Filled by `prepare`: the Trans-PDT serialized against overlapping
    /// committed deltas (Algorithm 8), ready to propagate.
    serialized: Option<Arc<Pdt>>,
}

impl DeltaTxn for PdtTxn {
    fn layers(&self) -> DeltaLayers<'_> {
        PdtSnapshot::stack(&self.read, &self.write, Some(&self.trans))
    }

    fn delta_total(&self) -> i64 {
        self.read.delta_total() + self.write.delta_total() + self.trans.delta_total()
    }

    fn is_dirty(&self) -> bool {
        !self.trans.is_empty()
    }

    fn stage_insert(&mut self, rid: u64, tuple: &[Value]) {
        let sk: Vec<Value> = self
            .trans
            .sk_cols()
            .iter()
            .map(|&c| tuple[c].clone())
            .collect();
        let sid = self.trans.sk_rid_to_sid(&sk, rid);
        self.trans.add_insert(sid, rid, tuple);
    }

    fn stage_delete(&mut self, rid: u64, row: &[Value]) {
        let sk: Vec<Value> = self
            .trans
            .sk_cols()
            .iter()
            .map(|&c| row[c].clone())
            .collect();
        self.trans.add_delete(rid, &sk);
    }

    fn stage_modify(&mut self, rid: u64, col: usize, value: &Value, _row: &[Value]) {
        self.trans.add_modify(rid, col, value);
    }

    /// Positional batch staging. PDT maintenance is already logarithmic
    /// per entry (the paper's point), so the tree ops stay per-row; the
    /// batch form wins by appending the whole insert payload to the value
    /// space **column-at-a-time** (typed `extend_range`, no per-value enum
    /// dispatch and no full-row materialization — each tree entry then just
    /// references its pre-assigned value-space offset), and by flowing to
    /// the WAL as coalesced batch entries after serialization.
    fn stage_batch(&mut self, batch: &DmlBatch) {
        match batch {
            DmlBatch::Insert { rids, rows } => {
                let sk_cols = self.trans.sk_cols().to_vec();
                let base = self.trans.add_insert_batch(&rows.cols);
                let mut sk: Vec<Value> = Vec::with_capacity(sk_cols.len());
                for (i, &rid) in rids.iter().enumerate() {
                    sk.clear();
                    sk.extend(sk_cols.iter().map(|&c| rows.cols[c].get(i)));
                    let sid = self.trans.sk_rid_to_sid(&sk, rid);
                    self.trans.add_insert_at(sid, rid, base + i as u64);
                }
            }
            DmlBatch::Delete { rids, pre } => {
                let sk_cols = self.trans.sk_cols().to_vec();
                let mut sk: Vec<Value> = Vec::with_capacity(sk_cols.len());
                // descending, so earlier victims' positions stay valid
                for (i, &rid) in rids.iter().enumerate().rev() {
                    sk.clear();
                    sk.extend(sk_cols.iter().map(|&c| pre.cols[c].get(i)));
                    self.trans.add_delete(rid, &sk);
                }
            }
            DmlBatch::UpdateCol {
                rids, col, values, ..
            } => {
                for (i, &rid) in rids.iter().enumerate() {
                    self.trans.add_modify(rid, *col, &values.get(i));
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl DeltaStore for PdtStore {
    fn policy(&self) -> UpdatePolicy {
        UpdatePolicy::Pdt
    }

    fn snapshot(&self) -> Arc<dyn DeltaSnapshot> {
        let snap = self
            .mgr
            .snapshot_table(&self.table)
            .unwrap_or_else(|| panic!("table {} not registered", self.table));
        Arc::new(PdtSnapshot {
            read: snap.read,
            write: snap.write,
        })
    }

    fn begin(&self, snap: &Arc<dyn DeltaSnapshot>, start_seq: u64) -> Box<dyn DeltaTxn> {
        let snap = snap
            .as_any()
            .downcast_ref::<PdtSnapshot>()
            .expect("PDT store handed a foreign snapshot");
        let trans = Pdt::new(snap.read.schema().clone(), snap.read.sk_cols().to_vec());
        Box::new(PdtTxn {
            read: snap.read.clone(),
            write: snap.write.clone(),
            trans,
            start_seq,
            serialized: None,
        })
    }

    fn prepare(&self, staged: &mut dyn DeltaTxn) -> Result<(), DbError> {
        let txn = staged
            .as_any_mut()
            .downcast_mut::<PdtTxn>()
            .expect("PDT store handed a foreign staging area");
        let serialized = self
            .mgr
            .serialize_txn(&self.table, txn.trans.clone(), txn.start_seq)?;
        txn.serialized = Some(Arc::new(serialized));
        Ok(())
    }

    fn wal_entries(&self, staged: &dyn DeltaTxn) -> Vec<WalEntry> {
        let txn = staged
            .as_any()
            .downcast_ref::<PdtTxn>()
            .expect("PDT store handed a foreign staging area");
        txn.serialized
            .as_ref()
            .map(|p| wal::pdt_entries(p))
            .unwrap_or_default()
    }

    fn publish(&self, staged: Box<dyn DeltaTxn>, seq: u64, _entries: &[WalEntry]) {
        let txn = staged
            .as_any()
            .downcast_ref::<PdtTxn>()
            .expect("PDT store handed a foreign staging area");
        let delta = txn
            .serialized
            .clone()
            .expect("publish called before prepare");
        self.mgr.publish_pdt(&self.table, delta, seq);
    }

    fn replay(&self, entries: &[WalEntry]) {
        self.mgr.replay_pdt_entries(&self.table, entries);
    }

    fn write_bytes(&self) -> usize {
        self.mgr.write_pdt_bytes(&self.table)
    }

    fn delta_bytes(&self) -> usize {
        self.mgr.pdt_bytes(&self.table)
    }

    fn flush(&self) -> bool {
        if self.mgr.write_pdt_bytes(&self.table) == 0 {
            return false;
        }
        self.mgr.flush_write_to_read(&self.table);
        true
    }

    fn checkpoint_pin(&self, seq: u64) -> Option<CheckpointPin> {
        // folds Write→Read first; commits during the merge land in the
        // fresh master Write-PDT, whose SIDs are relative to the combined
        // image the pin produces — exactly the layering §3.3 designs for
        let read = self.mgr.pin_checkpoint(&self.table)?;
        Some(CheckpointPin::new(seq, read))
    }

    fn checkpoint_merge(
        &self,
        pin: &CheckpointPin,
        stable: &StableTable,
        range: &CompactRange,
        io: &IoTracker,
    ) -> Result<RangeMerge, DbError> {
        let read = pin.state::<Arc<Pdt>>();
        let fresh = pdt::checkpoint::checkpoint_range(stable, read, range.b0, range.b1, io)?;
        // rebase the out-of-window remainder of the pinned Read-PDT onto
        // the post-splice SID space; the master Write-PDT (commits during
        // the merge) stays valid unchanged because stable′ ∘ residual is
        // the same visible image it was built against
        let (residual, _net) =
            wal::rebase_pdt_outside_range(read, range.s0, range.s1, range.folds_tail());
        let rebased = wal::rebuild_pdt(read.schema(), read.sk_cols(), &residual);
        Ok(RangeMerge::new(Some(fresh), residual, rebased))
    }

    fn checkpoint_install(&self, pin: CheckpointPin, merge: RangeMerge) {
        self.mgr.install_checkpoint(
            &self.table,
            pin.state::<Arc<Pdt>>(),
            merge.into_state::<Pdt>(),
        );
    }
}

// --- Value-based store --------------------------------------------------

/// [`DeltaStore`] over a value-based delta tree. Commits swap an immutable
/// committed [`Vdt`] (readers hold `Arc` snapshots, so they are never
/// blocked); when another transaction committed in between, the staged ops
/// log is replayed onto the current tree with key-addressed conflict
/// detection.
pub struct VdtStore {
    table: String,
    state: RwLock<VdtState>,
}

struct VdtState {
    committed: Arc<Vdt>,
    /// Bumped on every publish / checkpoint / replay; transactions compare
    /// it to detect concurrent commits (the value-based analogue of the
    /// TZ-set overlap test).
    version: u64,
    /// Commit retention for the in-flight checkpoint, if any.
    residual: ResidualLog,
}

impl VdtStore {
    /// An empty VDT store for `table`.
    pub fn new(table: String, schema: columnar::Schema, sk_cols: Vec<usize>) -> Self {
        VdtStore {
            table,
            state: RwLock::new(VdtState {
                committed: Arc::new(Vdt::new(schema, sk_cols)),
                version: 0,
                residual: ResidualLog::new(),
            }),
        }
    }
}

struct VdtSnapshot {
    vdt: Arc<Vdt>,
    version: u64,
}

impl DeltaSnapshot for VdtSnapshot {
    fn layers(&self) -> DeltaLayers<'_> {
        if self.vdt.is_empty() {
            DeltaLayers::None
        } else {
            DeltaLayers::Vdt(&self.vdt)
        }
    }

    fn delta_total(&self) -> i64 {
        self.vdt.delta_total()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct VdtTxn {
    /// Committed tree at begin with the staged ops already applied — what
    /// this transaction's own scans merge.
    working: Vdt,
    base_version: u64,
    /// The logical ops, kept for replay and WAL flattening.
    ops: Vec<VdtOp>,
}

impl DeltaTxn for VdtTxn {
    fn layers(&self) -> DeltaLayers<'_> {
        if self.working.is_empty() {
            DeltaLayers::None
        } else {
            DeltaLayers::Vdt(&self.working)
        }
    }

    fn delta_total(&self) -> i64 {
        self.working.delta_total()
    }

    fn is_dirty(&self) -> bool {
        !self.ops.is_empty()
    }

    fn stage_insert(&mut self, _rid: u64, tuple: &[Value]) {
        self.working.insert(tuple.to_vec());
        self.ops.push(VdtOp::Insert(tuple.to_vec()));
    }

    fn stage_delete(&mut self, _rid: u64, row: &[Value]) {
        let sk: Vec<Value> = self
            .working
            .sk_cols()
            .iter()
            .map(|&c| row[c].clone())
            .collect();
        self.working.delete(&sk);
        self.ops.push(VdtOp::Delete { pre: row.to_vec() });
    }

    fn stage_modify(&mut self, _rid: u64, col: usize, value: &Value, row: &[Value]) {
        self.working.modify(row, col, value.clone());
        self.ops.push(VdtOp::Modify {
            pre: row.to_vec(),
            col,
            value: value.clone(),
        });
    }

    /// Value-based batch staging: the whole statement becomes **one** op
    /// (and downstream one WAL entry). Single-row batches degrade to the
    /// singular ops so mixed workloads keep their natural log shape.
    fn stage_batch(&mut self, batch: &DmlBatch) {
        match batch {
            DmlBatch::Insert { rows, .. } => {
                let tuples = rows.rows();
                self.working.insert_batch(tuples.iter().cloned());
                match tuples.len() {
                    0 => {}
                    1 => self
                        .ops
                        .push(VdtOp::Insert(tuples.into_iter().next().unwrap())),
                    _ => self.ops.push(VdtOp::InsertBatch(tuples)),
                }
            }
            DmlBatch::Delete { pre, .. } => {
                let pres = pre.rows();
                let sk_cols = self.working.sk_cols().to_vec();
                for row in &pres {
                    let sk: Vec<Value> = sk_cols.iter().map(|&c| row[c].clone()).collect();
                    self.working.delete(&sk);
                }
                match pres.len() {
                    0 => {}
                    1 => self.ops.push(VdtOp::Delete {
                        pre: pres.into_iter().next().unwrap(),
                    }),
                    _ => self.ops.push(VdtOp::DeleteBatch { pres }),
                }
            }
            DmlBatch::UpdateCol {
                rids,
                col,
                values,
                pre,
            } => {
                // modifies keep per-row ops: the conflict contract is
                // per (key, column), and the pending-insert fold keeps
                // each statement O(log n) per row anyway
                for i in 0..rids.len() {
                    let row = pre.row(i);
                    let value = values.get(i);
                    self.working.modify(&row, *col, value.clone());
                    self.ops.push(VdtOp::Modify {
                        pre: row,
                        col: *col,
                        value,
                    });
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl DeltaStore for VdtStore {
    fn policy(&self) -> UpdatePolicy {
        UpdatePolicy::Vdt
    }

    fn snapshot(&self) -> Arc<dyn DeltaSnapshot> {
        let st = self.state.read();
        Arc::new(VdtSnapshot {
            vdt: st.committed.clone(),
            version: st.version,
        })
    }

    fn begin(&self, snap: &Arc<dyn DeltaSnapshot>, _start_seq: u64) -> Box<dyn DeltaTxn> {
        let snap = snap
            .as_any()
            .downcast_ref::<VdtSnapshot>()
            .expect("VDT store handed a foreign snapshot");
        Box::new(VdtTxn {
            working: (*snap.vdt).clone(),
            base_version: snap.version,
            ops: Vec::new(),
        })
    }

    fn prepare(&self, staged: &mut dyn DeltaTxn) -> Result<(), DbError> {
        let txn = staged
            .as_any_mut()
            .downcast_mut::<VdtTxn>()
            .expect("VDT store handed a foreign staging area");
        let st = self.state.read();
        if st.version == txn.base_version {
            // fast path: nothing committed since begin — the working tree
            // IS base ∘ ops and can be published wholesale
            return Ok(());
        }
        // somebody committed (or a checkpoint ran) in between: replay the
        // ops log onto the current committed tree with the key-addressed
        // conflict rules of `VdtOp::replay` (mirroring PDT Serialize)
        let mut replayed = (*st.committed).clone();
        for op in &txn.ops {
            op.replay(&mut replayed)
                .map_err(|reason| DbError::Conflict {
                    table: self.table.clone(),
                    reason,
                })?;
        }
        txn.working = replayed;
        txn.base_version = st.version;
        Ok(())
    }

    fn wal_entries(&self, staged: &dyn DeltaTxn) -> Vec<WalEntry> {
        let txn = staged
            .as_any()
            .downcast_ref::<VdtTxn>()
            .expect("VDT store handed a foreign staging area");
        let st = self.state.read();
        let sk_cols = txn.working.sk_cols().to_vec();
        let sk_of = |t: &[Value]| -> Vec<Value> { sk_cols.iter().map(|&c| t[c].clone()).collect() };
        let entry = |kind: u16, values: Vec<Value>| WalEntry {
            sid: 0,
            kind,
            values,
        };
        // Modify flattens to delete(key) + insert(post) in the shared
        // key-addressed log format. The post-image must reflect both this
        // transaction's own op chain *and* any concurrently committed
        // disjoint-column change that `prepare` reconciled with — so it is
        // built from the current committed tuple (under the commit guard,
        // after prepare) overlaid with our modified columns, op by op.
        let mut post: std::collections::HashMap<Vec<Value>, Vec<Value>> =
            std::collections::HashMap::new();
        let mut entries = Vec::new();
        for op in &txn.ops {
            match op {
                VdtOp::Insert(t) => {
                    post.insert(sk_of(t), t.clone());
                    entries.push(entry(pdt::INS, t.clone()));
                }
                VdtOp::InsertBatch(ts) => {
                    // one batched entry for the whole statement
                    let mut flat = Vec::with_capacity(ts.len() * ts.first().map_or(0, Vec::len));
                    for t in ts {
                        post.insert(sk_of(t), t.clone());
                        flat.extend(t.iter().cloned());
                    }
                    entries.push(entry(pdt::INS_BATCH, flat));
                }
                VdtOp::Delete { pre } => {
                    let key = sk_of(pre);
                    post.remove(&key);
                    entries.push(entry(pdt::DEL, key));
                }
                VdtOp::DeleteBatch { pres } => {
                    let mut flat = Vec::with_capacity(pres.len() * sk_cols.len());
                    for pre in pres {
                        let key = sk_of(pre);
                        post.remove(&key);
                        flat.extend(key);
                    }
                    entries.push(entry(pdt::DEL_BATCH, flat));
                }
                VdtOp::Modify { pre, col, value } => {
                    let key = sk_of(pre);
                    let t = post.entry(key.clone()).or_insert_with(|| {
                        st.committed
                            .pending_insert(&key)
                            .cloned()
                            .unwrap_or_else(|| pre.clone())
                    });
                    t[*col] = value.clone();
                    entries.push(entry(pdt::DEL, key));
                    entries.push(entry(pdt::INS, t.clone()));
                }
            }
        }
        // runs of per-row entries (row-at-a-time loops) compact too
        wal::coalesce_entries(entries)
    }

    fn publish(&self, mut staged: Box<dyn DeltaTxn>, seq: u64, entries: &[WalEntry]) {
        let txn = staged
            .as_any_mut()
            .downcast_mut::<VdtTxn>()
            .expect("VDT store handed a foreign staging area");
        // move the prepared tree out instead of deep-cloning it — commits
        // hold the global commit guard, so this must stay cheap
        let schema = txn.working.schema().clone();
        let sk_cols = txn.working.sk_cols().to_vec();
        let working = std::mem::replace(&mut txn.working, Vdt::new(schema, sk_cols));
        let mut st = self.state.write();
        debug_assert_eq!(
            st.version, txn.base_version,
            "publish without prepare under the commit guard"
        );
        st.committed = Arc::new(working);
        st.version += 1;
        st.residual.record(seq, entries);
    }

    fn replay(&self, entries: &[WalEntry]) {
        let mut st = self.state.write();
        // recovery holds no snapshots, so make_mut mutates in place —
        // replay stays linear in the number of logged commits
        let v = Arc::make_mut(&mut st.committed);
        apply_key_entries(entries, v);
        st.version += 1;
    }

    fn write_bytes(&self) -> usize {
        self.state.read().committed.heap_bytes()
    }

    fn delta_bytes(&self) -> usize {
        self.state.read().committed.heap_bytes()
    }

    fn flush(&self) -> bool {
        // single-layer structure: checkpoint is the only migration
        false
    }

    fn checkpoint_pin(&self, seq: u64) -> Option<CheckpointPin> {
        let mut st = self.state.write();
        if st.committed.is_empty() {
            return None;
        }
        st.residual.pin(seq);
        Some(CheckpointPin::new(seq, st.committed.clone()))
    }

    fn checkpoint_merge(
        &self,
        pin: &CheckpointPin,
        stable: &StableTable,
        range: &CompactRange,
        io: &IoTracker,
    ) -> Result<RangeMerge, DbError> {
        let pinned = pin.state::<Arc<Vdt>>();
        let empty = || Vdt::new(pinned.schema().clone(), pinned.sk_cols().to_vec());
        let mut residual = empty();
        let mut residual_entries = Vec::new();
        let folded = if range.covers_all_keys() {
            Cow::Borrowed(&**pinned)
        } else {
            // split the pinned tree by the range's key window — deletes
            // before inserts per half, so a modify's delete+insert pair
            // reconstructs exactly (the insert lands over its own delete
            // marker)
            let mut folded = empty();
            let mut res_dels: Vec<Vec<Value>> = Vec::new();
            for key in pinned.deletes() {
                if range.key_in_window(key) {
                    folded.delete(key);
                } else {
                    residual.delete(key);
                    res_dels.push(key.clone());
                }
            }
            let mut res_inss: Vec<Tuple> = Vec::new();
            for (key, t) in pinned.inserts() {
                if range.key_in_window(key) {
                    folded.insert(t.clone());
                } else {
                    residual.insert(t.clone());
                    res_inss.push(t.clone());
                }
            }
            residual_entries = key_residual_entries(res_dels, res_inss);
            Cow::Owned(folded)
        };
        let fresh = (!folded.is_empty())
            .then(|| rewrite_range(stable, range, io, |rows| folded.merge_rows(rows)))
            .transpose()?;
        Ok(RangeMerge::new(fresh, residual_entries, residual))
    }

    fn checkpoint_install(&self, pin: CheckpointPin, merge: RangeMerge) {
        let mut residual = merge.into_state::<Vdt>();
        let mut st = self.state.write();
        // commits published during the merge (seq > pin) survive on top of
        // the out-of-window residual
        st.residual.rebuild_into(pin.seq, &mut residual);
        st.committed = Arc::new(residual);
        st.residual.unpin();
        st.version += 1;
    }

    fn checkpoint_abort(&self, _pin: CheckpointPin) {
        self.state.write().residual.unpin();
    }
}
