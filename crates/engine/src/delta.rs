//! # The unified update-structure interface
//!
//! The paper's central comparison — positional (PDT) against value-based
//! (VDT) differential maintenance — only means something when both
//! structures sit behind the *same* lifecycle. This module defines that
//! lifecycle as four traits, and the rule that shapes them is **the object
//! that carries the state has the method**: nothing a store creates is
//! ever handed back to it, so there is no way to pass one store another
//! store's snapshot, staging area or pin.
//!
//! * [`DeltaStore`] — one instance per partition, chosen at `create_table`
//!   time via [`UpdatePolicy`]: committed-state snapshots, WAL replay,
//!   memory accounting for the Propagate policy, the Write→Read flush, and
//!   the checkpoint pin.
//! * [`DeltaSnapshot`] — an immutable capture of the committed delta state.
//!   Scans obtain their [`DeltaLayers`] from it, and a transaction's first
//!   write to the partition opens its staging area on it
//!   ([`DeltaSnapshot::begin`]).
//! * [`DeltaTxn`] — a transaction's private staging area. `stage_batch`
//!   takes each DML statement, `layers` lets the transaction's own scans
//!   see its uncommitted updates, and the commit protocol
//!   ([`crate::DbTxn::commit`], under the manager's commit guard) is three
//!   calls on it: `prepare` (validate against everything committed since
//!   begin), `wal_entries` (flatten for the log), `publish` (become
//!   visible at one commit sequence).
//! * [`CheckpointPin`] — an in-flight checkpoint: pinned under the commit
//!   guard by [`DeltaStore::checkpoint_pin`], merged off every lock by
//!   [`CheckpointPin::merge`], installed under the guard again by the
//!   [`RangeMerge::install`] closure the merge returns.
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
use std::borrow::Cow;
use std::sync::Arc;
use txn::wal::{self, WalEntry};
use txn::{TxnError, TxnManager};
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
/// ([`CheckpointPin::merge`]) to the installation of the new image
/// ([`RangeMerge::install`], under the commit guard again).
pub trait CheckpointPin: Send {
    /// Global commit sequence at pin time: every commit at or below it is
    /// covered by the checkpoint (folded into the merged image or carried
    /// in its residual); every later one stays on top after install. Also
    /// the sequence the WAL checkpoint marker carries.
    fn seq(&self) -> u64;
    /// Checkpoint phase 2 (run OFF every lock — commits and new read views
    /// proceed concurrently): fold exactly the part of the pinned delta
    /// addressing `range` into fresh blocks spliced between the kept ones,
    /// and flatten the out-of-range remainder into residual WAL entries
    /// (for the marker). On `Err` the caller must [`CheckpointPin::abort`].
    fn merge(
        &self,
        stable: &StableTable,
        range: &CompactRange,
        io: &IoTracker,
    ) -> Result<RangeMerge, DbError>;
    /// Abandon the checkpoint because its merge (or marker append) failed:
    /// release any pin-window state without touching the delta — the
    /// partition must be left exactly as if the checkpoint never started,
    /// ready for the next attempt. Default: stateless pins need nothing.
    fn abort(self: Box<Self>) {}
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

/// Result of [`CheckpointPin::merge`]: the image with the range's blocks
/// rewritten, the residual delta flattened for the WAL marker, and the
/// install step.
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
    /// Checkpoint phase 3 (cheap; call under the commit guard, atomically
    /// with the stable-image swap): replace the pinned delta with the
    /// merge's out-of-range residual, positions rebased onto the new
    /// image. Commits published during the merge — sequence above the
    /// pin's — survive on top.
    pub install: Box<dyn FnOnce() + Send>,
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

/// Apply key-addressed WAL entries (`INS` carries the full tuple, `DEL`
/// the sort key, `INS_BATCH`/`DEL_BATCH` whole statements' worth of
/// either) to a value-addressed structure — the one replay loop shared by
/// WAL recovery and the checkpoint-residual rebuilds of both value stores.
/// Entries come from a file: any other kind (value stores never log
/// modifies, they flatten them to delete + insert — so this is a log some
/// other policy wrote) or a payload that does not slice into whole tuples
/// or keys is reported, not applied.
pub(crate) fn apply_key_entries(
    entries: &[WalEntry],
    sink: &mut impl KeyEntrySink,
) -> Result<(), String> {
    let (tuple_width, key_width) = sink.entry_widths();
    for e in entries {
        let n = e.values.len();
        match e.kind {
            pdt::INS if n == tuple_width => sink.apply_insert(e.values.clone()),
            pdt::DEL if n == key_width => sink.apply_delete(&e.values),
            pdt::INS_BATCH if n % tuple_width == 0 => sink.apply_insert_batch(
                e.values
                    .chunks(tuple_width)
                    .map(<[Value]>::to_vec)
                    .collect(),
            ),
            pdt::DEL_BATCH if n % key_width == 0 => {
                for key in e.values.chunks(key_width) {
                    sink.apply_delete(key);
                }
            }
            pdt::INS | pdt::DEL | pdt::INS_BATCH | pdt::DEL_BATCH => {
                return Err(format!(
                    "entry of kind {} carries {n} values, tuples are {tuple_width} wide and keys {key_width}",
                    e.kind
                ))
            }
            kind => return Err(format!("modify entry (kind {kind}) in a value-store log")),
        }
    }
    Ok(())
}

/// The error [`DeltaStore::replay`] reports for a log that does not fit
/// the store it is recovered into.
pub(crate) fn replay_error(table: &str, detail: String) -> DbError {
    DbError::Txn(TxnError::Wal(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("WAL does not fit table {table}: {detail}"),
    )))
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
            apply_key_entries(entries, sink)
                .expect("retained entries were flattened by this store");
        }
    }

    /// End the pin window (after install, or on a failed merge) and drop
    /// the retained entries.
    pub(crate) fn unpin(&mut self) {
        self.pinned_at = None;
        self.log.clear();
    }
}

/// Immutable committed-state capture used by read views and as the base of
/// a transaction's staging area.
pub trait DeltaSnapshot: Send + Sync {
    /// The delta layers a scan over the stable image must merge.
    fn layers(&self) -> DeltaLayers<'_>;
    /// Net visible-row change relative to the stable image.
    fn delta_total(&self) -> i64;
    /// Open a staging area on top of this snapshot, taken at transaction
    /// begin (`start_seq` is the global commit sequence observed then).
    fn begin(&self, start_seq: u64) -> Box<dyn DeltaTxn>;
}

/// A transaction's private staging area for one partition, and its half of
/// the commit protocol.
///
/// Commit is two-phase and driven by [`crate::DbTxn::commit`] under
/// [`TxnManager::commit_guard`]: `prepare` every touched partition
/// (validating against concurrently committed updates — any failure aborts
/// the whole transaction before anything is visible), flatten
/// `wal_entries`, log them, then `publish` every partition at one commit
/// sequence number.
pub trait DeltaTxn: Send {
    /// Delta layers including this transaction's own staged updates.
    fn layers(&self) -> DeltaLayers<'_>;
    /// Net visible-row change including staged updates.
    fn delta_total(&self) -> i64;
    /// Has anything been staged?
    fn is_dirty(&self) -> bool;
    /// Stage one whole batched statement (see [`DmlBatch`] for the
    /// invariants the engine upholds): inserts in application order,
    /// deletes so that earlier positions stay valid. Each store has its
    /// own vectorized path — value-space appends column-at-a-time for the
    /// PDT, one sorted-run merge per batch for the row store, one
    /// op-log/WAL entry per batch for the value stores.
    fn stage_batch(&mut self, batch: &DmlBatch);
    /// Commit phase 1: validate the staged updates against everything
    /// committed since `start_seq`, rewriting them into publishable form.
    fn prepare(&mut self) -> Result<(), DbError>;
    /// The staged updates flattened for the write-ahead log (call after
    /// `prepare`).
    fn wal_entries(&self) -> Vec<WalEntry>;
    /// Commit phase 2: atomically make the prepared updates visible at
    /// commit sequence `seq`. `entries` is the commit's WAL flattening for
    /// this partition (as produced by [`DeltaTxn::wal_entries`]) — stores
    /// that checkpoint by residual replay retain it until the next
    /// checkpoint covers it. Infallible — all validation happened in
    /// `prepare`.
    fn publish(self: Box<Self>, seq: u64, entries: &[WalEntry]);
}

/// One partition's update structure: the entry points of the
/// differential-maintenance lifecycle. Everything that continues from one
/// of them lives on the object it returns.
pub trait DeltaStore: Send + Sync {
    /// Which structure this store maintains.
    fn policy(&self) -> UpdatePolicy;
    /// Capture the committed delta state for reads and transactions.
    fn snapshot(&self) -> Arc<dyn DeltaSnapshot>;
    /// Recovery: re-apply one logged commit's entries for this partition.
    /// Fails — leaving the store as far as it got — when the entries do
    /// not fit the structure (a log written under another policy, a
    /// payload of the wrong width).
    fn replay(&self, entries: &[WalEntry]) -> Result<(), DbError>;
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
    fn checkpoint_pin(&self, seq: u64) -> Option<Box<dyn CheckpointPin>>;
}

// --- Positional store ---------------------------------------------------

/// [`DeltaStore`] over stacked PDTs, delegating to the shared
/// [`TxnManager`] (which owns the Read/Write layers, the TZ conflict set
/// and the commit sequence for all PDT tables). A cheap handle: the
/// snapshots, staging areas and pins it hands out each carry a clone.
#[derive(Clone)]
pub struct PdtStore {
    mgr: Arc<TxnManager>,
    /// The partition's registry name in `mgr`.
    table: Arc<str>,
}

impl PdtStore {
    /// The PDT store of `table`, registered with `mgr`.
    pub fn new(mgr: Arc<TxnManager>, table: String) -> Self {
        PdtStore {
            mgr,
            table: table.into(),
        }
    }
}

struct PdtSnapshot {
    store: PdtStore,
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

    fn begin(&self, start_seq: u64) -> Box<dyn DeltaTxn> {
        Box::new(PdtTxn {
            store: self.store.clone(),
            read: self.read.clone(),
            write: self.write.clone(),
            trans: Pdt::new(self.read.schema().clone(), self.read.sk_cols().to_vec()),
            start_seq,
            serialized: None,
        })
    }
}

struct PdtTxn {
    store: PdtStore,
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

    fn prepare(&mut self) -> Result<(), DbError> {
        let PdtStore { mgr, table } = &self.store;
        let serialized = mgr.serialize_txn(table, self.trans.clone(), self.start_seq)?;
        self.serialized = Some(Arc::new(serialized));
        Ok(())
    }

    fn wal_entries(&self) -> Vec<WalEntry> {
        self.serialized
            .as_ref()
            .map(|p| wal::pdt_entries(p))
            .unwrap_or_default()
    }

    fn publish(self: Box<Self>, seq: u64, _entries: &[WalEntry]) {
        let delta = self.serialized.expect("publish called before prepare");
        self.store.mgr.publish_pdt(&self.store.table, delta, seq);
    }
}

/// The Read-PDT pinned for an in-flight checkpoint.
struct PdtPin {
    store: PdtStore,
    seq: u64,
    read: Arc<Pdt>,
}

impl CheckpointPin for PdtPin {
    fn seq(&self) -> u64 {
        self.seq
    }

    fn merge(
        &self,
        stable: &StableTable,
        range: &CompactRange,
        io: &IoTracker,
    ) -> Result<RangeMerge, DbError> {
        let read = &self.read;
        let fresh = pdt::checkpoint::checkpoint_range(stable, read, range.b0, range.b1, io)?;
        // rebase the out-of-window remainder of the pinned Read-PDT onto
        // the post-splice SID space; the master Write-PDT (commits during
        // the merge) stays valid unchanged because stable′ ∘ residual is
        // the same visible image it was built against
        let (residual_entries, _net) =
            wal::rebase_pdt_outside_range(read, range.s0, range.s1, range.folds_tail());
        let rebased = wal::rebuild_pdt(read.schema(), read.sk_cols(), &residual_entries);
        let (PdtStore { mgr, table }, pinned) = (self.store.clone(), read.clone());
        Ok(RangeMerge {
            fresh: Some(fresh),
            residual_entries,
            install: Box::new(move || mgr.install_checkpoint(&table, &pinned, rebased)),
        })
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
            store: self.clone(),
            read: snap.read,
            write: snap.write,
        })
    }

    fn replay(&self, entries: &[WalEntry]) -> Result<(), DbError> {
        Ok(self.mgr.replay_pdt_entries(&self.table, entries)?)
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

    fn checkpoint_pin(&self, seq: u64) -> Option<Box<dyn CheckpointPin>> {
        // folds Write→Read first; commits during the merge land in the
        // fresh master Write-PDT, whose SIDs are relative to the combined
        // image the pin produces — exactly the layering §3.3 designs for
        let read = self.mgr.pin_checkpoint(&self.table)?;
        Some(Box::new(PdtPin {
            store: self.clone(),
            seq,
            read,
        }))
    }
}

// --- Value-based store --------------------------------------------------

/// [`DeltaStore`] over a value-based delta tree. Commits swap an immutable
/// committed [`Vdt`] (readers hold `Arc` snapshots, so they are never
/// blocked); when another transaction committed in between, the staged ops
/// log is replayed onto the current tree with key-addressed conflict
/// detection. A cheap handle: the snapshots, staging areas and pins it
/// hands out each carry a clone.
#[derive(Clone)]
pub struct VdtStore {
    state: Arc<RwLock<VdtState>>,
}

struct VdtState {
    table: String,
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
            state: Arc::new(RwLock::new(VdtState {
                table,
                committed: Arc::new(Vdt::new(schema, sk_cols)),
                version: 0,
                residual: ResidualLog::new(),
            })),
        }
    }
}

struct VdtSnapshot {
    store: VdtStore,
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

    fn begin(&self, _start_seq: u64) -> Box<dyn DeltaTxn> {
        Box::new(VdtTxn {
            store: self.store.clone(),
            working: (*self.vdt).clone(),
            base_version: self.version,
            ops: Vec::new(),
        })
    }
}

struct VdtTxn {
    store: VdtStore,
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

    fn prepare(&mut self) -> Result<(), DbError> {
        let st = self.store.state.read();
        if st.version == self.base_version {
            // fast path: nothing committed since begin — the working tree
            // IS base ∘ ops and can be published wholesale
            return Ok(());
        }
        // somebody committed (or a checkpoint ran) in between: replay the
        // ops log onto the current committed tree with the key-addressed
        // conflict rules of `VdtOp::replay` (mirroring PDT Serialize)
        let mut replayed = (*st.committed).clone();
        for op in &self.ops {
            op.replay(&mut replayed)
                .map_err(|reason| DbError::Conflict {
                    table: st.table.clone(),
                    reason,
                })?;
        }
        self.working = replayed;
        self.base_version = st.version;
        Ok(())
    }

    fn wal_entries(&self) -> Vec<WalEntry> {
        let st = self.store.state.read();
        let sk_cols = self.working.sk_cols().to_vec();
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
        for op in &self.ops {
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

    fn publish(self: Box<Self>, seq: u64, entries: &[WalEntry]) {
        let mut st = self.store.state.write();
        debug_assert_eq!(
            st.version, self.base_version,
            "publish without prepare under the commit guard"
        );
        // the prepared tree moves in instead of being deep-cloned —
        // commits hold the global commit guard, so this must stay cheap
        st.committed = Arc::new(self.working);
        st.version += 1;
        st.residual.record(seq, entries);
    }
}

/// The committed tree pinned for an in-flight checkpoint.
struct VdtPin {
    store: VdtStore,
    seq: u64,
    pinned: Arc<Vdt>,
}

impl CheckpointPin for VdtPin {
    fn seq(&self) -> u64 {
        self.seq
    }

    fn merge(
        &self,
        stable: &StableTable,
        range: &CompactRange,
        io: &IoTracker,
    ) -> Result<RangeMerge, DbError> {
        let pinned = &self.pinned;
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
        let (store, pin_seq) = (self.store.clone(), self.seq);
        let install = move || {
            let mut st = store.state.write();
            // commits published during the merge (seq > pin) survive on
            // top of the out-of-window residual
            st.residual.rebuild_into(pin_seq, &mut residual);
            st.committed = Arc::new(residual);
            st.residual.unpin();
            st.version += 1;
        };
        Ok(RangeMerge {
            fresh,
            residual_entries,
            install: Box::new(install),
        })
    }

    fn abort(self: Box<Self>) {
        self.store.state.write().residual.unpin();
    }
}

impl DeltaStore for VdtStore {
    fn policy(&self) -> UpdatePolicy {
        UpdatePolicy::Vdt
    }

    fn snapshot(&self) -> Arc<dyn DeltaSnapshot> {
        let st = self.state.read();
        Arc::new(VdtSnapshot {
            store: self.clone(),
            vdt: st.committed.clone(),
            version: st.version,
        })
    }

    fn replay(&self, entries: &[WalEntry]) -> Result<(), DbError> {
        let mut guard = self.state.write();
        let st = &mut *guard;
        st.version += 1;
        // recovery holds no snapshots, so make_mut mutates in place —
        // replay stays linear in the number of logged commits
        apply_key_entries(entries, Arc::make_mut(&mut st.committed))
            .map_err(|detail| replay_error(&st.table, detail))
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

    fn checkpoint_pin(&self, seq: u64) -> Option<Box<dyn CheckpointPin>> {
        let mut st = self.state.write();
        if st.committed.is_empty() {
            return None;
        }
        st.residual.pin(seq);
        Some(Box::new(VdtPin {
            store: self.clone(),
            seq,
            pinned: st.committed.clone(),
        }))
    }
}
