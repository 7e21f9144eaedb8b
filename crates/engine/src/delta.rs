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
//! [`PdtStore`] owns its partition's stacked PDTs ([`txn::PdtLayers`]:
//! Read/Write layers and the TZ conflict set; Serialize/Propagate commits
//! — §3.3), sequenced by the database's [`TxnManager`]. The two
//! *key-addressed* baselines share one adapter, [`KeyStore`], generic over
//! the [`KeyDelta`] structure it maintains: `KeyStore<Vdt>` gives the
//! value-based tree the *same* transactional treatment the paper's VDT
//! lacks in most systems — staged ops, snapshot isolation from an immutable
//! committed structure, write-write conflict detection, WAL-logged commits
//! — and `KeyStore<RowBuffer>` does so for the classic delta-store model, a
//! copy-on-write row buffer with per-commit versioned runs. What the
//! adapter shares is only the glue; the structures, their mergers and
//! their conflict mechanisms (value-wise replay vs. run footprints) stay
//! independently built, and three independently implemented structures
//! behind one lifecycle are what the differential test harness
//! ([`crate::testkit`]) leans on.

use crate::batch::{DmlBatch, PreImageOf};
use crate::DbError;
use columnar::value::sk_of;
use columnar::{
    ColumnVec, ColumnarError, IoTracker, KeyOp, Schema, SkKey, StableTable, TableBuilder, Tuple,
    Value, ValueType,
};
use exec::DeltaLayers;
use parking_lot::RwLock;
use pdt::Pdt;
use std::borrow::Cow;
use std::sync::Arc;
use txn::wal::{self, WalEntry};
use txn::{PdtLayers, PdtSnapshot, TxnError, TxnManager};
use vdt::Vdt;

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
fn rewrite_range(
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

/// A key-addressed log entry (value stores address by key, never by SID).
fn key_entry(kind: u16, values: Vec<Value>) -> WalEntry {
    WalEntry {
        sid: 0,
        kind,
        values,
    }
}

/// A statement's rows (or keys) as one unit of the op log and the WAL:
/// nothing for none, the singular form for one — so mixed workloads keep
/// their natural log shape — and the batch form otherwise.
fn one_or_batch<T>(
    mut rows: Vec<Vec<Value>>,
    one: impl FnOnce(Vec<Value>) -> T,
    batch: impl FnOnce(Vec<Vec<Value>>) -> T,
) -> Option<T> {
    match rows.len() {
        0 => None,
        1 => Some(one(rows.remove(0))),
        _ => Some(batch(rows)),
    }
}

/// Flatten a value-addressed residual (delete keys + insert tuples, each
/// key-sorted) into loggable entries: deletes first, then inserts, so
/// replaying through [`apply_key_entries`] reconstructs the structure
/// exactly (an insert over its own delete key re-hides the stable row).
fn key_residual_entries(dels: Vec<SkKey>, inss: Vec<Tuple>) -> Vec<WalEntry> {
    let flat = |rows: Vec<Vec<Value>>| rows.into_iter().flatten().collect();
    let dels = one_or_batch(
        dels,
        |key| key_entry(pdt::DEL, key),
        |keys| key_entry(pdt::DEL_BATCH, flat(keys)),
    );
    let inss = one_or_batch(
        inss,
        |t| key_entry(pdt::INS, t),
        |ts| key_entry(pdt::INS_BATCH, flat(ts)),
    );
    dels.into_iter().chain(inss).collect()
}

/// A key-addressed delta structure, as the one engine adapter
/// ([`KeyStore`]) sees it. A structure says only **how it stores** (the
/// accessors and `apply_*` methods — each a thin delegation to the
/// structure's own inherent API) and **how it detects conflicts** (the
/// [`KeyDelta::rebase`] hook and the [`KeyDelta::History`] it may keep for
/// it); staging, WAL flattening, publication, replay and the checkpoint
/// protocol are written once over this trait. Implemented by [`Vdt`] and,
/// in [`crate::rowstore`], by the row buffer.
pub trait KeyDelta: Clone + Send + Sync + 'static {
    /// What the structure keeps beside its committed state to validate
    /// transactions that began before the latest commit (`()` when the
    /// committed structure itself is enough).
    type History: Default + Send + Sync;
    /// The policy that selects this structure.
    const POLICY: UpdatePolicy;

    /// An empty structure over a table of this shape.
    fn new(schema: Schema, sk_cols: Vec<usize>) -> Self;
    /// The table's schema.
    fn schema(&self) -> &Schema;
    /// The table's sort-key columns.
    fn sk_cols(&self) -> &[usize];
    /// The structure as a scan's merge input (called on non-empty
    /// structures only).
    fn layers(&self) -> DeltaLayers<'_>;
    /// Does the structure hold no update at all?
    fn is_empty(&self) -> bool;
    /// Net visible-row change relative to the stable image.
    fn delta_total(&self) -> i64;
    /// Approximate heap footprint.
    fn heap_bytes(&self) -> usize;
    /// Apply one staged op (transaction staging).
    fn apply_op(&mut self, op: &KeyOp);
    /// Apply one logged insert.
    fn apply_insert(&mut self, tuple: Tuple);
    /// Apply one logged batch of inserts. Default: row loop; structures
    /// with a cheaper bulk path override it.
    fn apply_insert_batch(&mut self, tuples: Vec<Tuple>) {
        for t in tuples {
            self.apply_insert(t);
        }
    }
    /// Apply one logged delete of the visible tuple at `key`.
    fn apply_delete(&mut self, key: &[Value]);
    /// The buffered tuple visible at `key`, if any.
    fn pending(&self, key: &[Value]) -> Option<&Tuple>;
    /// Everything the structure holds, as `(key, hides the stable tuple at
    /// key, the tuple visible at key)` items for the checkpoint's range
    /// split. A key may be reported in two items as long as the hiding one
    /// comes first; within each of the two kinds, items are in key order.
    fn contents(&self) -> impl Iterator<Item = (&SkKey, bool, Option<&Tuple>)>;
    /// Row-level merge into `stable_rows` (the checkpoint's fold).
    fn merge_rows(&self, stable_rows: &[Tuple]) -> Vec<Tuple>;

    /// Conflict detection. Something was published after the transaction
    /// that staged `ops` took its snapshot at `base_version`: validate the
    /// ops against what was committed since and return `committed` with
    /// them applied, or the reason they conflict.
    fn rebase(
        committed: &Self,
        history: &Self::History,
        base_version: u64,
        ops: &[KeyOp],
    ) -> Result<Self, String>;
    /// A commit staged as `ops` produced `version`.
    fn record(_history: &mut Self::History, _version: u64, _ops: Vec<KeyOp>) {}
    /// A checkpoint pinned at `version` was installed: nothing at or below
    /// it can be concurrent with a transaction that validates from now on.
    fn retire(_history: &mut Self::History, _version: u64) {}
    /// Approximate heap footprint of the history.
    fn history_bytes(_history: &Self::History) -> usize {
        0
    }
}

impl KeyDelta for Vdt {
    /// None: conflicts are recognised value-wise against the committed
    /// tree itself ([`Vdt::replay`]).
    type History = ();
    const POLICY: UpdatePolicy = UpdatePolicy::Vdt;

    fn new(schema: Schema, sk_cols: Vec<usize>) -> Self {
        Vdt::new(schema, sk_cols)
    }

    fn schema(&self) -> &Schema {
        self.schema()
    }

    fn sk_cols(&self) -> &[usize] {
        self.sk_cols()
    }

    fn layers(&self) -> DeltaLayers<'_> {
        DeltaLayers::Vdt(self)
    }

    fn is_empty(&self) -> bool {
        self.is_empty()
    }

    fn delta_total(&self) -> i64 {
        self.delta_total()
    }

    fn heap_bytes(&self) -> usize {
        self.heap_bytes()
    }

    fn apply_op(&mut self, op: &KeyOp) {
        match op {
            KeyOp::Insert(t) => self.insert(t.clone()),
            KeyOp::InsertBatch(ts) => self.insert_batch(ts.iter().cloned()),
            KeyOp::Delete { pre } => self.apply_delete(&sk_of(pre, self.sk_cols())),
            KeyOp::DeleteBatch { pres } => {
                for pre in pres {
                    self.apply_delete(&sk_of(pre, self.sk_cols()));
                }
            }
            KeyOp::Modify { pre, col, value } => self.modify(pre, *col, value.clone()),
        }
    }

    fn apply_insert(&mut self, tuple: Tuple) {
        self.insert(tuple);
    }

    fn apply_delete(&mut self, key: &[Value]) {
        self.delete(key);
    }

    fn pending(&self, key: &[Value]) -> Option<&Tuple> {
        self.pending_insert(key)
    }

    /// The delete table, then the insert table: a modified tuple's key is
    /// reported by both, hiding first.
    fn contents(&self) -> impl Iterator<Item = (&SkKey, bool, Option<&Tuple>)> {
        let hidden = self.deletes().map(|k| (k, true, None));
        hidden.chain(self.inserts().map(|(k, t)| (k, false, Some(t))))
    }

    fn merge_rows(&self, stable_rows: &[Tuple]) -> Vec<Tuple> {
        self.merge_rows(stable_rows)
    }

    /// Replay the ops log onto the current committed tree with the
    /// value-wise conflict rules of [`Vdt::replay`] (mirroring PDT
    /// Serialize).
    fn rebase(committed: &Vdt, _: &(), _: u64, ops: &[KeyOp]) -> Result<Vdt, String> {
        let mut replayed = committed.clone();
        ops.iter().try_for_each(|op| replayed.replay(op))?;
        Ok(replayed)
    }
}

/// Apply key-addressed WAL entries (`INS` carries the full tuple, `DEL`
/// the sort key, `INS_BATCH`/`DEL_BATCH` whole statements' worth of
/// either) to a value-addressed structure — the one replay loop shared by
/// WAL recovery and the checkpoint-residual rebuilds of both value stores.
/// Entries come from a file: any other kind (value stores never log
/// modifies, they flatten them to delete + insert — so this is a log some
/// other policy wrote), a payload that does not slice into whole tuples
/// or keys, or a value of another type than its column's is reported, not
/// applied — the structures themselves check their input in debug builds
/// only.
fn apply_key_entries<D: KeyDelta>(entries: &[WalEntry], sink: &mut D) -> Result<(), String> {
    let tuple_types = sink.schema().types();
    let key_types: Vec<ValueType> = sink.sk_cols().iter().map(|&c| tuple_types[c]).collect();
    for e in entries {
        let n = e.values.len();
        let types = match e.kind {
            pdt::INS | pdt::INS_BATCH => &tuple_types,
            pdt::DEL | pdt::DEL_BATCH => &key_types,
            kind => return Err(format!("modify entry (kind {kind}) in a value-store log")),
        };
        let batched = matches!(e.kind, pdt::INS_BATCH | pdt::DEL_BATCH);
        if n % types.len() != 0 || (!batched && n != types.len()) {
            return Err(format!(
                "entry of kind {} carries {n} values, tuples are {} wide and keys {}",
                e.kind,
                tuple_types.len(),
                key_types.len()
            ));
        }
        let mut columns = e.values.iter().zip(types.iter().cycle());
        if let Some((v, t)) = columns.find(|(v, t)| !v.is_null() && v.value_type() != Some(**t)) {
            return Err(format!(
                "entry of kind {} carries {v:?} for a column of type {t:?}",
                e.kind
            ));
        }
        let items = e.values.chunks(types.len());
        match e.kind {
            pdt::INS => sink.apply_insert(e.values.clone()),
            pdt::INS_BATCH => sink.apply_insert_batch(items.map(<[Value]>::to_vec).collect()),
            _ => items.for_each(|key| sink.apply_delete(key)),
        }
    }
    Ok(())
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
#[derive(Default)]
struct ResidualLog {
    pinned_at: Option<u64>,
    log: Vec<(u64, Vec<WalEntry>)>,
}

impl ResidualLog {
    /// Start retaining (checkpoint pinned at `seq`). Per-table maintenance
    /// is serialized by the engine, so no pin can already be in flight.
    fn pin(&mut self, seq: u64) {
        debug_assert!(
            self.pinned_at.is_none() && self.log.is_empty(),
            "checkpoint pinned while another pin is in flight"
        );
        self.pinned_at = Some(seq);
    }

    /// Record one published commit (no-op unless a pin is in flight).
    fn record(&mut self, seq: u64, entries: &[WalEntry]) {
        if self.pinned_at.is_some() && !entries.is_empty() {
            self.log.push((seq, entries.to_vec()));
        }
    }

    /// Replay the retained commits with sequence above `pin_seq` into
    /// `sink` — the residual delta over the checkpointed image.
    fn rebuild_into(&self, pin_seq: u64, sink: &mut impl KeyDelta) {
        for (_, entries) in self.log.iter().filter(|(s, _)| *s > pin_seq) {
            apply_key_entries(entries, sink)
                .expect("retained entries were flattened by this store");
        }
    }

    /// End the pin window (after install, or on a failed merge) and drop
    /// the retained entries.
    fn unpin(&mut self) {
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
    /// The table columns a staging area opened on this snapshot reads of a
    /// victim's pre-image, per statement kind — what the engine must fetch
    /// into [`DmlBatch`]'s `pre`, in this order. A structure declares what
    /// it *stores or consumes*, nothing more: every column here is a block
    /// the statement decodes.
    fn pre_image_cols(&self, stmt: PreImageOf) -> Vec<usize>;
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

/// [`DeltaStore`] over stacked PDTs (Read/Write/Trans layers,
/// Serialize/Propagate commits — §3.3). The store owns its partition's
/// [`PdtLayers`] — the Read and Write layers and the TZ conflict set — as
/// [`KeyStore`] owns its state; only the commit order is shared, through
/// the [`TxnManager`] the layers commit with. A cheap handle: the
/// snapshots, staging areas and pins it hands out each carry a clone.
#[derive(Clone)]
pub struct PdtStore {
    pub(crate) layers: Arc<PdtLayers>,
}

impl PdtStore {
    /// An empty store for a partition of `table`, committing through `mgr`.
    pub fn new(mgr: Arc<TxnManager>, table: String, schema: Schema, sk_cols: Vec<usize>) -> Self {
        PdtStore {
            layers: Arc::new(PdtLayers::new(mgr, table, schema, sk_cols)),
        }
    }
}

/// The non-empty layers of a capture, bottom up, with a transaction's
/// Trans-PDT on top.
fn pdt_stack<'a>(snap: &'a PdtSnapshot, trans: Option<&'a Pdt>) -> DeltaLayers<'a> {
    let mut layers = Vec::with_capacity(3);
    if !snap.read.is_empty() {
        layers.push(&*snap.read);
    }
    if !snap.write.is_empty() {
        layers.push(&*snap.write);
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

impl DeltaSnapshot for PdtSnapshot {
    fn layers(&self) -> DeltaLayers<'_> {
        pdt_stack(self, None)
    }

    fn delta_total(&self) -> i64 {
        self.read.delta_total() + self.write.delta_total()
    }

    /// A ghost keeps its sort key (the delete table — what keeps the
    /// sparse index stale-safe); a modify is addressed by position alone.
    fn pre_image_cols(&self, stmt: PreImageOf) -> Vec<usize> {
        match stmt {
            PreImageOf::Delete => self.read.sk_cols().to_vec(),
            PreImageOf::UpdateCol => Vec::new(),
        }
    }

    fn begin(&self, start_seq: u64) -> Box<dyn DeltaTxn> {
        Box::new(PdtTxn {
            snap: self.clone(),
            trans: Pdt::new(self.read.schema().clone(), self.read.sk_cols().to_vec()),
            start_seq,
            serialized: None,
        })
    }
}

struct PdtTxn {
    /// The committed layers captured at begin.
    snap: PdtSnapshot,
    /// The transaction's private Trans-PDT (eq. (9)'s top layer).
    trans: Pdt,
    start_seq: u64,
    /// Filled by `prepare`: the Trans-PDT serialized against overlapping
    /// committed deltas (Algorithm 8), ready to propagate.
    serialized: Option<Arc<Pdt>>,
}

impl DeltaTxn for PdtTxn {
    fn layers(&self) -> DeltaLayers<'_> {
        pdt_stack(&self.snap, Some(&self.trans))
    }

    fn delta_total(&self) -> i64 {
        self.snap.delta_total() + self.trans.delta_total()
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
                // `pre` is the declared projection: the sort key, in order
                let mut sk: Vec<Value> = Vec::with_capacity(pre.num_cols());
                // descending, so earlier victims' positions stay valid
                for (i, &rid) in rids.iter().enumerate().rev() {
                    sk.clear();
                    sk.extend(pre.cols.iter().map(|c| c.get(i)));
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
        let layers = &self.snap.layers;
        let serialized = layers.serialize(self.trans.clone(), self.start_seq)?;
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
        self.snap.layers.publish(delta, seq);
    }
}

/// The Read-PDT pinned for an in-flight checkpoint.
struct PdtPin {
    layers: Arc<PdtLayers>,
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
        let (layers, pinned) = (self.layers.clone(), read.clone());
        let rebased = wal::rebuild_pdt(read.schema(), read.sk_cols(), &residual_entries)
            .map_err(|detail| TxnError::misfit(layers.table(), detail))?;
        Ok(RangeMerge {
            fresh: Some(fresh),
            residual_entries,
            install: Box::new(move || layers.install(&pinned, rebased)),
        })
    }
}

impl DeltaStore for PdtStore {
    fn policy(&self) -> UpdatePolicy {
        UpdatePolicy::Pdt
    }

    fn snapshot(&self) -> Arc<dyn DeltaSnapshot> {
        Arc::new(self.layers.snapshot())
    }

    fn replay(&self, entries: &[WalEntry]) -> Result<(), DbError> {
        Ok(self.layers.replay(entries)?)
    }

    fn write_bytes(&self) -> usize {
        self.layers.write_bytes()
    }

    fn delta_bytes(&self) -> usize {
        self.layers.bytes()
    }

    fn flush(&self) -> bool {
        self.layers.flush()
    }

    fn checkpoint_pin(&self, seq: u64) -> Option<Box<dyn CheckpointPin>> {
        // folds Write→Read first; commits during the merge land in the
        // fresh master Write-PDT, whose SIDs are relative to the combined
        // image the pin produces — exactly the layering §3.3 designs for
        let read = self.layers.pin()?;
        Some(Box::new(PdtPin {
            layers: self.layers.clone(),
            seq,
            read,
        }))
    }
}

// --- Key-addressed stores -----------------------------------------------

/// [`DeltaStore`] over a key-addressed delta structure — the one engine
/// adapter of the value-based tree (`KeyStore<Vdt>`) and the row buffer
/// (`KeyStore<RowBuffer>`). Commits swap an immutable committed structure
/// (readers hold `Arc` snapshots, so they are never blocked, and a commit
/// never mutates a published structure); when something was published
/// since a transaction's begin, its staged ops go through the structure's
/// own conflict detection ([`KeyDelta::rebase`]). A cheap handle: the
/// snapshots, staging areas and pins it hands out each carry a clone.
#[derive(Clone)]
pub struct KeyStore<D: KeyDelta> {
    state: Arc<RwLock<KeyState<D>>>,
}

struct KeyState<D: KeyDelta> {
    table: String,
    committed: Arc<D>,
    /// Bumped on every publish / checkpoint / replay; transactions compare
    /// it to detect concurrent commits (the value-based analogue of the
    /// TZ-set overlap test).
    version: u64,
    /// Commit retention for the in-flight checkpoint, if any.
    residual: ResidualLog,
    history: D::History,
}

impl<D: KeyDelta> KeyStore<D> {
    /// An empty store for `table`.
    pub fn new(table: String, schema: Schema, sk_cols: Vec<usize>) -> Self {
        KeyStore {
            state: Arc::new(RwLock::new(KeyState {
                table,
                committed: Arc::new(D::new(schema, sk_cols)),
                version: 0,
                residual: ResidualLog::default(),
                history: D::History::default(),
            })),
        }
    }
}

fn key_layers<D: KeyDelta>(delta: &D) -> DeltaLayers<'_> {
    if delta.is_empty() {
        DeltaLayers::None
    } else {
        delta.layers()
    }
}

struct KeySnapshot<D: KeyDelta> {
    store: KeyStore<D>,
    delta: Arc<D>,
    version: u64,
}

impl<D: KeyDelta> DeltaSnapshot for KeySnapshot<D> {
    fn layers(&self) -> DeltaLayers<'_> {
        key_layers(&*self.delta)
    }

    fn delta_total(&self) -> i64 {
        self.delta.delta_total()
    }

    /// Whole tuples for both kinds: [`KeyOp`]'s `pre` is what a modify
    /// re-inserts as the updated tuple, and what validation compares to
    /// tell a delete from a concurrently modified victim
    /// (`Vdt::replay`'s delete-vs-modify rule) — a key alone would not do.
    fn pre_image_cols(&self, _stmt: PreImageOf) -> Vec<usize> {
        (0..self.delta.schema().len()).collect()
    }

    fn begin(&self, _start_seq: u64) -> Box<dyn DeltaTxn> {
        Box::new(KeyTxn {
            store: self.store.clone(),
            working: (*self.delta).clone(),
            base_version: self.version,
            ops: Vec::new(),
        })
    }
}

struct KeyTxn<D: KeyDelta> {
    store: KeyStore<D>,
    /// Committed structure at `base_version` with the staged ops already
    /// applied — what this transaction's own scans merge, and what
    /// `publish` moves in.
    working: D,
    base_version: u64,
    /// The logical ops, kept for conflict validation and WAL flattening.
    ops: Vec<KeyOp>,
}

impl<D: KeyDelta> KeyTxn<D> {
    fn stage(&mut self, ops: impl IntoIterator<Item = KeyOp>) {
        for op in ops {
            self.working.apply_op(&op);
            self.ops.push(op);
        }
    }
}

impl<D: KeyDelta> DeltaTxn for KeyTxn<D> {
    fn layers(&self) -> DeltaLayers<'_> {
        key_layers(&self.working)
    }

    fn delta_total(&self) -> i64 {
        self.working.delta_total()
    }

    fn is_dirty(&self) -> bool {
        !self.ops.is_empty()
    }

    /// Key-addressed batch staging: the whole statement becomes **one** op
    /// (and downstream one WAL entry), which a structure with a bulk path
    /// — the row buffer's single merge pass — absorbs as such.
    fn stage_batch(&mut self, batch: &DmlBatch) {
        match batch {
            DmlBatch::Insert { rows, .. } => {
                self.stage(one_or_batch(rows.rows(), KeyOp::Insert, KeyOp::InsertBatch))
            }
            DmlBatch::Delete { pre, .. } => self.stage(one_or_batch(
                pre.rows(),
                |pre| KeyOp::Delete { pre },
                |pres| KeyOp::DeleteBatch { pres },
            )),
            // modifies keep per-row ops: the conflict contract is per
            // (key, column), and the pending-tuple fold keeps each
            // statement O(log n) per row anyway
            DmlBatch::UpdateCol {
                rids,
                col,
                values,
                pre,
            } => self.stage((0..rids.len()).map(|i| KeyOp::Modify {
                pre: pre.row(i),
                col: *col,
                value: values.get(i),
            })),
        }
    }

    fn prepare(&mut self) -> Result<(), DbError> {
        let st = self.store.state.read();
        if st.version == self.base_version {
            // fast path: nothing committed since begin — the working
            // structure IS base ∘ ops and can be published wholesale
            return Ok(());
        }
        // somebody committed (or a checkpoint ran) in between
        self.working = D::rebase(&st.committed, &st.history, self.base_version, &self.ops)
            .map_err(|reason| DbError::Conflict {
                table: st.table.clone(),
                reason,
            })?;
        self.base_version = st.version;
        Ok(())
    }

    fn wal_entries(&self) -> Vec<WalEntry> {
        let st = self.store.state.read();
        let sk_cols = self.working.sk_cols();
        // Modify flattens to delete(key) + insert(post) in the shared
        // key-addressed log format. The post-image must reflect both this
        // transaction's own op chain *and* any concurrently committed
        // disjoint-column change that `prepare` reconciled with — so it is
        // built from the current committed tuple (under the commit guard,
        // after prepare) overlaid with our modified columns, op by op.
        let mut post: std::collections::HashMap<SkKey, Tuple> = std::collections::HashMap::new();
        let mut entries = Vec::new();
        for op in &self.ops {
            match op {
                KeyOp::Insert(t) => {
                    post.insert(sk_of(t, sk_cols), t.clone());
                    entries.push(key_entry(pdt::INS, t.clone()));
                }
                KeyOp::InsertBatch(ts) => {
                    // one batched entry for the whole statement
                    let mut flat = Vec::with_capacity(ts.len() * ts.first().map_or(0, Vec::len));
                    for t in ts {
                        post.insert(sk_of(t, sk_cols), t.clone());
                        flat.extend(t.iter().cloned());
                    }
                    entries.push(key_entry(pdt::INS_BATCH, flat));
                }
                KeyOp::Delete { pre } => {
                    let key = sk_of(pre, sk_cols);
                    post.remove(&key);
                    entries.push(key_entry(pdt::DEL, key));
                }
                KeyOp::DeleteBatch { pres } => {
                    let mut flat = Vec::with_capacity(pres.len() * sk_cols.len());
                    for pre in pres {
                        let key = sk_of(pre, sk_cols);
                        post.remove(&key);
                        flat.extend(key);
                    }
                    entries.push(key_entry(pdt::DEL_BATCH, flat));
                }
                KeyOp::Modify { pre, col, value } => {
                    let key = sk_of(pre, sk_cols);
                    let t = post.entry(key.clone()).or_insert_with(|| {
                        st.committed
                            .pending(&key)
                            .cloned()
                            .unwrap_or_else(|| pre.clone())
                    });
                    t[*col] = value.clone();
                    entries.push(key_entry(pdt::DEL, key));
                    entries.push(key_entry(pdt::INS, t.clone()));
                }
            }
        }
        // runs of per-row entries (row-at-a-time loops) compact too
        wal::coalesce_entries(entries)
    }

    fn publish(self: Box<Self>, seq: u64, entries: &[WalEntry]) {
        let KeyTxn {
            store,
            working,
            base_version,
            ops,
        } = *self;
        let mut guard = store.state.write();
        let st = &mut *guard;
        debug_assert_eq!(
            st.version, base_version,
            "publish without prepare under the commit guard"
        );
        // the prepared structure moves in instead of being deep-cloned —
        // commits hold the global commit guard, so this must stay cheap
        st.committed = Arc::new(working);
        st.version += 1;
        D::record(&mut st.history, st.version, ops);
        st.residual.record(seq, entries);
    }
}

/// The committed structure pinned for an in-flight checkpoint.
struct KeyPin<D: KeyDelta> {
    store: KeyStore<D>,
    seq: u64,
    pinned: Arc<D>,
    version: u64,
}

impl<D: KeyDelta> CheckpointPin for KeyPin<D> {
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
        let empty = || D::new(pinned.schema().clone(), pinned.sk_cols().to_vec());
        let mut residual = empty();
        let mut residual_entries = Vec::new();
        let folded = if range.covers_all_keys() {
            Cow::Borrowed(&**pinned)
        } else {
            // split the pinned structure by the range's key window,
            // reconstructing each half through the logged-entry ops — a
            // hidden stable tuple is a delete, a visible tuple an insert,
            // hides before inserts per key, so a modify's delete+insert
            // pair reconstructs exactly (the insert lands over its own
            // delete marker and re-hides the stable row)
            let mut folded = empty();
            let mut res_dels: Vec<SkKey> = Vec::new();
            let mut res_inss: Vec<Tuple> = Vec::new();
            for (key, hides_stable, tuple) in pinned.contents() {
                let in_win = range.key_in_window(key);
                let half = if in_win { &mut folded } else { &mut residual };
                if hides_stable {
                    half.apply_delete(key);
                    if !in_win {
                        res_dels.push(key.clone());
                    }
                }
                if let Some(t) = tuple {
                    half.apply_insert(t.clone());
                    if !in_win {
                        res_inss.push(t.clone());
                    }
                }
            }
            residual_entries = key_residual_entries(res_dels, res_inss);
            Cow::Owned(folded)
        };
        // a net-zero fold (e.g. the row buffer after insert + delete of
        // the same key): the current image already equals the merged one;
        // install still retires the covered history and commit log
        let fresh = (!folded.is_empty())
            .then(|| rewrite_range(stable, range, io, |rows| folded.merge_rows(rows)))
            .transpose()?;
        let (store, pin_seq, pin_version) = (self.store.clone(), self.seq, self.version);
        let install = move || {
            let mut guard = store.state.write();
            let st = &mut *guard;
            // commits published during the merge (seq > pin) survive on
            // top of the out-of-window residual; their history stays for
            // the validation of transactions that began before the pin
            st.residual.rebuild_into(pin_seq, &mut residual);
            st.committed = Arc::new(residual);
            D::retire(&mut st.history, pin_version);
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

impl<D: KeyDelta> DeltaStore for KeyStore<D> {
    fn policy(&self) -> UpdatePolicy {
        D::POLICY
    }

    fn snapshot(&self) -> Arc<dyn DeltaSnapshot> {
        let st = self.state.read();
        Arc::new(KeySnapshot {
            store: self.clone(),
            delta: st.committed.clone(),
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
            .map_err(|detail| TxnError::misfit(&st.table, detail).into())
    }

    fn write_bytes(&self) -> usize {
        self.state.read().committed.heap_bytes()
    }

    fn delta_bytes(&self) -> usize {
        // the history counts too: under churn (insert then delete of the
        // same key) the net structure stays tiny while a run history grows
        // with every commit — the checkpoint budget must see that growth,
        // or the scheduler never retires it
        let st = self.state.read();
        st.committed.heap_bytes() + D::history_bytes(&st.history)
    }

    fn flush(&self) -> bool {
        // single-layer structure: checkpoint is the only migration
        false
    }

    fn checkpoint_pin(&self, seq: u64) -> Option<Box<dyn CheckpointPin>> {
        let mut st = self.state.write();
        // a history with nothing in the structure (churn that netted out)
        // still wants a checkpoint: only an install retires it
        if st.committed.is_empty() && D::history_bytes(&st.history) == 0 {
            return None;
        }
        st.residual.pin(seq);
        Some(Box::new(KeyPin {
            store: self.clone(),
            seq,
            pinned: st.committed.clone(),
            version: st.version,
        }))
    }
}
