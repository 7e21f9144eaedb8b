//! # Transaction management from stacked PDTs (paper §3.3)
//!
//! The paper's lock-free snapshot-isolation scheme (Figure 14) is *per
//! table* except for one thing, the commit order. The crate is those two
//! objects:
//!
//! * [`TxnManager`] — what is global, one per database: the commit guard,
//!   the commit sequence, the set of running transactions (and from it the
//!   [`watermark`](TxnManager::watermark) below which no retained delta can
//!   matter any more), and the [`wal`].
//! * [`PdtLayers`] — what is per partition, owned by the store that
//!   maintains the partition: the RAM-resident **Read-PDT** (large,
//!   shared), the small CPU-cache-sized **Write-PDT** — the only structure
//!   commits mutate; readers share it copy-on-write (a capture is an
//!   `Arc` clone, and a commit copies the layer only while a capture still
//!   holds it), so running queries are never blocked — and the **TZ
//!   set**, the recently committed deltas still-running transactions are
//!   serialized against.
//!   A transaction adds its private **Trans-PDT** on top (eq. (9):
//!   `TABLE_t = TABLE0 ∘ Read ∘ Write ∘ Trans`).
//!
//! Commit follows Algorithm 9 (`Finish`), one step at a time, so
//! PDT-backed partitions share a single atomic commit with partitions
//! maintained by other delta structures. A transaction begins under
//! [`TxnManager::commit_guard`] with [`start_txn`](TxnManager::start_txn)
//! and a [`layers.snapshot`](PdtLayers::snapshot) per partition. To
//! commit, the caller (the engine's `DbTxn::commit`) takes the guard
//! again across [`layers.serialize`](PdtLayers::serialize) — the
//! Trans-PDT [`Serialize`](pdt::serialize)-d against every overlapping
//! committed delta of *that partition*; a write-write conflict returns
//! the [`SerializeError`] and aborts the transaction →
//! [`alloc_seq`](TxnManager::alloc_seq) →
//! [`log_commit_enqueue`](TxnManager::log_commit_enqueue), which returns
//! the durability ticket → [`layers.publish`](PdtLayers::publish) — the
//! consecutive delta [`Propagate`](pdt::propagate)-d into the master
//! Write-PDT and retained in the TZ set → [`end_txn`](TxnManager::end_txn),
//! releases it, then waits on
//! [`wait_wal_durable`](TxnManager::wait_wal_durable), which returns the
//! log write's `io::Error` if it failed. The crate returns these plain
//! results; the engine turns them into its own errors (a conflict is the
//! same error under every update policy).
//! Retained deltas are dropped once no running transaction overlaps them
//! (the paper's reference counting, realised as the manager's
//! min-start-sequence watermark): a layers object prunes its own deque
//! wherever it is locked anyway. Recovery is [`wal::read_all`] +
//! [`wal::effective_commits`] + [`layers.replay`](PdtLayers::replay)
//! (which returns what does not fit when a log does not fit the table) +
//! [`finish_recovery`](TxnManager::finish_recovery).
//!
//! **Lock order**, the only one: commit guard → a layers object's lock →
//! the manager's `inner`; never the reverse (the manager knows no layers
//! object, so it cannot call into one). A flush runs outside the commit
//! guard: it takes only the layers' lock, under the per-partition
//! maintenance mutex its caller already holds; a pin takes that mutex,
//! then the guard, then the layers' lock.

pub mod wal;

use columnar::Schema;
use parking_lot::{Mutex, MutexGuard};
use pdt::propagate::propagate;
use pdt::serialize::{serialize, SerializeError};
use pdt::Pdt;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Arc;

struct Inner {
    running: BTreeMap<u64, u64>, // txn id -> start_seq
    next_txn: u64,
    seq: u64,
}

/// The transaction manager (one per database): the commit order and
/// nothing that belongs to a single table.
pub struct TxnManager {
    inner: Mutex<Inner>,
    wal: Option<wal::GroupWal>,
    /// Serializes whole commit protocols (and engine-level maintenance)
    /// across possibly many lock acquisitions — see
    /// [`TxnManager::commit_guard`].
    commit_mx: Mutex<()>,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// In-memory manager (no WAL).
    pub fn new() -> Self {
        TxnManager {
            inner: Mutex::new(Inner {
                running: BTreeMap::new(),
                next_txn: 1,
                seq: 0,
            }),
            wal: None,
            commit_mx: Mutex::new(()),
        }
    }

    /// Take the global commit lock. Every multi-step protocol that must
    /// observe or mutate a consistent cross-table state — a commit's
    /// prepare/publish sequence, snapshot capture for a read view,
    /// checkpointing, recovery — runs under this guard; single calls on the
    /// manager or on one [`PdtLayers`] stay internally consistent through
    /// that object's own lock.
    pub fn commit_guard(&self) -> MutexGuard<'_, ()> {
        self.commit_mx.lock()
    }

    /// Manager with a write-ahead log at `path` (appended on each commit
    /// through the group-commit coordinator).
    pub fn with_wal(path: &Path) -> std::io::Result<Self> {
        let mut mgr = Self::new();
        mgr.wal = Some(wal::GroupWal::open(path)?);
        Ok(mgr)
    }

    /// Register a running transaction; returns `(txn id, start sequence)`.
    pub fn start_txn(&self) -> (u64, u64) {
        let mut inner = self.inner.lock();
        let id = inner.next_txn;
        inner.next_txn += 1;
        let start_seq = inner.seq;
        inner.running.insert(id, start_seq);
        (id, start_seq)
    }

    /// Deregister a running transaction (commit or abort); the deltas it
    /// was holding alive fall below the [`TxnManager::watermark`].
    pub fn end_txn(&self, id: u64) {
        self.inner.lock().running.remove(&id);
    }

    /// The sequence at or below which a committed delta can no longer
    /// overlap any transaction: the smallest start sequence still running,
    /// else the current commit sequence (the paper's reference counts).
    /// Never decreases.
    pub fn watermark(&self) -> u64 {
        let inner = self.inner.lock();
        inner.running.values().min().copied().unwrap_or(inner.seq)
    }

    /// Allocate the next commit sequence number.
    pub fn alloc_seq(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.seq += 1;
        inner.seq
    }

    /// Group-commit phase A: encode and enqueue one commit record in the
    /// coordinator's pending buffer. Infallible and in-memory — call it
    /// under [`TxnManager::commit_guard`] right after [`Self::alloc_seq`]
    /// so the buffer (and therefore the file) stays in sequence order.
    /// Returns the durability ticket, or `None` when nothing was logged
    /// (no WAL, or an empty delta set).
    pub fn log_commit_enqueue(
        &self,
        seq: u64,
        tables: &[(&str, u32, &[wal::WalEntry])],
    ) -> Option<u64> {
        let w = self.wal.as_ref()?;
        if tables.is_empty() {
            return None;
        }
        Some(w.enqueue_commit(seq, tables))
    }

    /// Group-commit phase B: block until the record behind `ticket` is
    /// written to the log file. Call *after* releasing the commit guard —
    /// that is what lets concurrently committing sessions share one WAL
    /// write window. The commit is already visible when this runs; a
    /// process crash in between loses only visible-but-unacknowledged
    /// commits, never acknowledged ones (the write is not fsynced, so a
    /// power loss can).
    pub fn wait_wal_durable(&self, ticket: u64) -> std::io::Result<()> {
        match &self.wal {
            Some(w) => w.wait_durable(ticket),
            None => Ok(()),
        }
    }

    /// The group-commit coordinator, `None` without a WAL.
    pub fn wal(&self) -> Option<&wal::GroupWal> {
        self.wal.as_ref()
    }

    /// Recovery epilogue: restore the commit sequence.
    pub fn finish_recovery(&self, seq: u64) {
        let mut inner = self.inner.lock();
        inner.seq = inner.seq.max(seq);
    }

    /// Append a checkpoint marker for `(table, partition)` at pinned
    /// sequence `seq` (no-op without a WAL): the folded stable-SID window
    /// `range` of the image the checkpoint published at `seq`, and the
    /// out-of-range `residual` recovery replays on top of that image.
    /// Call under [`TxnManager::commit_guard`], atomically with the
    /// install of the new stable image. Unpartitioned tables pass
    /// partition `0`.
    pub fn log_checkpoint(
        &self,
        table: &str,
        partition: u32,
        seq: u64,
        range: (u64, u64),
        residual: &[wal::WalEntry],
    ) -> std::io::Result<()> {
        match &self.wal {
            // synchronous through the coordinator: the marker (and any
            // commit records enqueued before it) is on disk when the new
            // stable image becomes the recovery base
            Some(w) => w.append_checkpoint(table, partition, seq, range, residual),
            None => Ok(()),
        }
    }

    /// Current global commit sequence.
    pub fn seq(&self) -> u64 {
        self.inner.lock().seq
    }
}

/// Immutable capture of one partition's committed layers
/// ([`PdtLayers::snapshot`]), with the handle of the object it was taken
/// from — what a transaction opened on it later serializes against and
/// publishes into.
#[derive(Clone)]
pub struct PdtSnapshot {
    /// The layers this is a capture of.
    pub layers: Arc<PdtLayers>,
    /// The (big, RAM-resident) Read-PDT layer.
    pub read: Arc<Pdt>,
    /// The Write-PDT as of the capture (shared with every capture taken
    /// between the same two commits; a later commit copies it, not this).
    pub write: Arc<Pdt>,
}

/// A recently committed, serialized Trans-PDT kept for conflict checking
/// against still-running overlapping transactions (the paper's TZ set).
struct CommittedDelta {
    seq: u64,
    pdt: Arc<Pdt>,
}

struct LayerState {
    /// The Read-PDT; copied on flush only while a pin or a capture still
    /// holds it.
    read: Arc<Pdt>,
    /// The master Write-PDT, shared by every capture taken since the last
    /// commit ("copying is not always required"): a commit or flush
    /// mutates it through [`Arc::make_mut`], which copies only while some
    /// capture still holds it.
    master_write: Arc<Pdt>,
    /// The TZ set of this partition, in commit order.
    tz: VecDeque<CommittedDelta>,
}

impl LayerState {
    /// Migrate the master Write-PDT into the Read-PDT; whether there was
    /// anything to migrate.
    fn flush_write(&mut self) -> bool {
        if self.master_write.is_empty() {
            return false;
        }
        propagate(Arc::make_mut(&mut self.read), &self.master_write);
        let read = &self.read;
        self.master_write = Arc::new(Pdt::new(read.schema().clone(), read.sk_cols().to_vec()));
        true
    }

    /// Drop the retained deltas at or below `watermark`: a delta is needed
    /// only while some running transaction started before it committed.
    fn prune(&mut self, watermark: u64) {
        self.tz.retain(|d| d.seq > watermark);
    }
}

/// One partition's stacked-PDT state (§3.3, Figure 14): the Read-PDT, the
/// master Write-PDT and the TZ set, behind one lock, with the commit and
/// maintenance state machine as methods. Owned (through an `Arc`) by the
/// store that maintains the partition; the [`TxnManager`] it sequences
/// commits with does not know it.
pub struct PdtLayers {
    mgr: Arc<TxnManager>,
    /// The table maintained, for error text only.
    table: String,
    state: Mutex<LayerState>,
}

impl PdtLayers {
    /// Empty layers over a partition of `table` with this shape,
    /// committing through `mgr`.
    pub fn new(mgr: Arc<TxnManager>, table: String, schema: Schema, sk_cols: Vec<usize>) -> Self {
        PdtLayers {
            mgr,
            table,
            state: Mutex::new(LayerState {
                read: Arc::new(Pdt::new(schema.clone(), sk_cols.clone())),
                master_write: Arc::new(Pdt::new(schema, sk_cols)),
                tz: VecDeque::new(),
            }),
        }
    }

    /// Lock the state, dropping the retained deltas no running transaction
    /// overlaps any more. Everything that reads or grows the deque comes
    /// through here, so retention is as tight as anything can observe.
    fn locked(&self) -> MutexGuard<'_, LayerState> {
        let mut st = self.state.lock();
        if !st.tz.is_empty() {
            st.prune(self.mgr.watermark());
        }
        st
    }

    /// The table these layers belong to (for error text).
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Capture the layers: two `Arc` clones, nothing copied — a later
    /// commit or flush copies a layer only if the capture still holds it.
    /// Registers nothing: read views are not tracked in the running set
    /// and retain no TZ deltas. Callers needing a consistent cut across
    /// partitions (or across delta structures) hold
    /// [`TxnManager::commit_guard`] around the calls.
    pub fn snapshot(self: &Arc<Self>) -> PdtSnapshot {
        let st = self.locked();
        PdtSnapshot {
            layers: self.clone(),
            read: st.read.clone(),
            write: st.master_write.clone(),
        }
    }

    /// Serialize a Trans-PDT against every retained delta that overlaps a
    /// transaction started at `start_seq` (Algorithm 8 applied over the TZ
    /// set) — the write-write conflict check. The error names the update
    /// of the earlier transaction the Trans-PDT conflicts with.
    pub fn serialize(&self, trans: Pdt, start_seq: u64) -> Result<Pdt, SerializeError> {
        let st = self.locked();
        let mut cur = trans;
        for delta in st.tz.iter() {
            if delta.seq > start_seq {
                cur = serialize(cur, &delta.pdt)?;
            }
        }
        Ok(cur)
    }

    /// Publish a serialized delta at commit `seq`: propagate it into the
    /// master Write-PDT and retain it in the TZ set for conflict checks
    /// against still-running overlapping transactions. The Write-PDT is
    /// copied first only if a capture still holds it — a committer drops
    /// its own before calling.
    pub fn publish(&self, delta: Arc<Pdt>, seq: u64) {
        let mut st = self.locked();
        propagate(Arc::make_mut(&mut st.master_write), &delta);
        st.tz.push_back(CommittedDelta { seq, pdt: delta });
    }

    /// Recovery: rebuild one logged delta and propagate it into the master
    /// Write-PDT. Fails with what does not fit, leaving the layers
    /// untouched, when the entries do not fit the table.
    pub fn replay(&self, entries: &[wal::WalEntry]) -> Result<(), String> {
        let mut st = self.state.lock();
        let delta = wal::rebuild_pdt(st.read.schema(), st.read.sk_cols(), entries)?;
        propagate(Arc::make_mut(&mut st.master_write), &delta);
        Ok(())
    }

    /// Size of the master Write-PDT (the Propagate policy input).
    pub fn write_bytes(&self) -> usize {
        self.state.lock().master_write.heap_bytes()
    }

    /// Combined Read-PDT + master Write-PDT footprint — the
    /// checkpoint-threshold input of the maintenance scheduler.
    pub fn bytes(&self) -> usize {
        let st = self.state.lock();
        st.read.heap_bytes() + st.master_write.heap_bytes()
    }

    /// Number of retained committed deltas (TZ set size) as last pruned —
    /// test support.
    pub fn tz_retained(&self) -> usize {
        self.state.lock().tz.len()
    }

    /// Migrate the master Write-PDT into the Read-PDT (the paper's periodic
    /// `Propagate` when the Write-PDT outgrows the CPU cache); whether
    /// there was anything to migrate. Running transactions are unaffected:
    /// they hold Arc snapshots.
    pub fn flush(&self) -> bool {
        self.locked().flush_write()
    }

    /// Checkpoint phase 1: flush the master Write-PDT into the Read-PDT (so
    /// the pinned layer is complete) and pin the combined Read-PDT. The
    /// caller rebuilds the stable image from the returned `Arc` *off* every
    /// lock — commits keep flowing into the (fresh, empty) master Write-PDT
    /// in the meantime, and their SIDs stay valid relative to the image the
    /// pin will produce. Returns `None` when there is nothing to fold.
    ///
    /// Callers must serialize per-partition maintenance (the engine holds
    /// a per-partition maintenance mutex): only commits may run between a
    /// pin and its [`PdtLayers::install`], never another flush or
    /// checkpoint of the same partition.
    pub fn pin(&self) -> Option<Arc<Pdt>> {
        let mut st = self.locked();
        st.flush_write();
        if st.read.is_empty() {
            None
        } else {
            Some(st.read.clone())
        }
    }

    /// Checkpoint phase 3: the part of the pinned Read-PDT addressing the
    /// merged block range is folded into the new stable image — replace
    /// the read layer with `residual`, the out-of-range remainder rebased
    /// onto that image ([`wal::rebase_pdt_outside_range`]; empty after a
    /// whole-partition checkpoint). Panics if the Read layer changed since
    /// the pin (a concurrent flush/checkpoint the caller failed to
    /// serialize).
    pub fn install(&self, pinned: &Arc<Pdt>, residual: Pdt) {
        let mut st = self.state.lock();
        assert!(
            Arc::ptr_eq(&st.read, pinned),
            "Read-PDT of {} changed between checkpoint pin and install",
            self.table
        );
        st.read = Arc::new(residual);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::{Tuple, Value, ValueType};
    use pdt::checkpoint::merge_rows;

    fn schema() -> Schema {
        Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)])
    }

    fn base(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
            .collect()
    }

    fn layers() -> Arc<PdtLayers> {
        layers_on(Arc::new(TxnManager::new()), schema())
    }

    fn layers_on(mgr: Arc<TxnManager>, schema: Schema) -> Arc<PdtLayers> {
        Arc::new(PdtLayers::new(mgr, "t".into(), schema, vec![0]))
    }

    /// A transaction on one partition, driven step by step through the
    /// same calls the engine's `DbTxn` makes.
    struct TestTxn {
        id: u64,
        start_seq: u64,
        snap: PdtSnapshot,
        trans: Pdt,
    }

    fn begin(l: &Arc<PdtLayers>) -> TestTxn {
        let _commit = l.mgr.commit_guard();
        let (id, start_seq) = l.mgr.start_txn();
        let snap = l.snapshot();
        let trans = Pdt::new(snap.read.schema().clone(), snap.read.sk_cols().to_vec());
        TestTxn {
            id,
            start_seq,
            snap,
            trans,
        }
    }

    /// serialize → alloc_seq → log enqueue → publish → end, all under the
    /// commit guard; the durable wait after releasing it.
    fn commit(l: &Arc<PdtLayers>, t: TestTxn) -> Result<u64, SerializeError> {
        let m = &l.mgr;
        let guard = m.commit_guard();
        if t.trans.is_empty() {
            m.end_txn(t.id);
            return Ok(m.seq());
        }
        let delta = match l.serialize(t.trans, t.start_seq) {
            Ok(d) => Arc::new(d),
            Err(e) => {
                m.end_txn(t.id);
                return Err(e);
            }
        };
        let seq = m.alloc_seq();
        let entries = wal::pdt_entries(&delta);
        let ticket = m.log_commit_enqueue(seq, &[("t", 0, entries.as_slice())]);
        l.publish(delta, seq);
        m.end_txn(t.id);
        drop(guard);
        if let Some(ticket) = ticket {
            m.wait_wal_durable(ticket).expect("log write");
        }
        Ok(seq)
    }

    fn abort(l: &Arc<PdtLayers>, t: TestTxn) {
        l.mgr.end_txn(t.id);
    }

    /// Recovery as the engine runs it: read, drop what markers cover,
    /// replay the rest, restore the sequence.
    fn recover(l: &Arc<PdtLayers>, path: &Path) -> std::io::Result<u64> {
        let mut last = 0;
        let all = wal::read_all(path)?;
        let markers = wal::checkpoint_markers(&all);
        for rec in wal::effective_commits(all, &markers) {
            last = rec.seq();
            if let wal::WalRecord::Commit { tables, .. } = rec {
                for (_table, _partition, entries) in tables {
                    l.replay(&entries).unwrap();
                }
            }
        }
        l.mgr.finish_recovery(last);
        Ok(last)
    }

    /// View of table "t" under a transaction's layers (Read, Write, Trans).
    fn view(rows: &[Tuple], txn: &TestTxn) -> Vec<Tuple> {
        let mut cur = rows.to_vec();
        for p in [&*txn.snap.read, &*txn.snap.write, &txn.trans] {
            cur = merge_rows(&cur, p);
        }
        cur
    }

    #[test]
    fn uncommitted_updates_visible_only_to_self() {
        let m = layers();
        let rows = base(5);
        let mut a = begin(&m);
        let b = begin(&m);
        a.trans.add_delete(0, &[Value::Int(0)]);
        assert_eq!(view(&rows, &a).len(), 4, "a sees its own delete");
        assert_eq!(view(&rows, &b).len(), 5, "b is isolated");
        commit(&m, a).unwrap();
        // b still isolated (snapshot taken at begin)
        assert_eq!(view(&rows, &b).len(), 5);
        // a new transaction sees the commit
        let c = begin(&m);
        assert_eq!(view(&rows, &c).len(), 4);
    }

    #[test]
    fn conflicting_commit_aborts() {
        let m = layers();
        let mut a = begin(&m);
        let mut b = begin(&m);
        a.trans.add_modify(2, 1, &Value::Int(100));
        b.trans.add_modify(2, 1, &Value::Int(200));
        commit(&m, a).unwrap();
        let err = commit(&m, b).unwrap_err();
        assert_eq!(
            err,
            SerializeError::ModModConflict { sid: 2, col: 1 },
            "{err}"
        );
        // state reflects only a's update
        let c = begin(&m);
        let rows = view(&base(5), &c);
        assert_eq!(rows[2][1], Value::Int(100));
    }

    #[test]
    fn disjoint_column_mods_reconcile() {
        let m = layers();
        let mut a = begin(&m);
        let mut b = begin(&m);
        a.trans.add_modify(2, 1, &Value::Int(100));
        b.trans.add_modify(2, 0, &Value::Int(25));
        commit(&m, a).unwrap();
        commit(&m, b).unwrap();
        let c = begin(&m);
        let rows = view(&base(5), &c);
        assert_eq!(rows[2], vec![Value::Int(25), Value::Int(100)]);
    }

    #[test]
    fn figure15_three_transaction_schedule() {
        // the paper's example: a and b start on the empty Write-PDT; b
        // commits; c starts; a commits (serializing against b); c commits
        // (serializing against a').
        let m = layers();
        let rows = base(10);
        let mut a = begin(&m);
        let mut b = begin(&m);
        b.trans.add_delete(1, &[Value::Int(10)]);
        a.trans.add_modify(5, 1, &Value::Int(55));
        commit(&m, b).unwrap(); // t2
        let mut c = begin(&m);
        c.trans.add_insert(0, 0, &[Value::Int(-5), Value::Int(0)]);
        commit(&m, a).unwrap(); // t3: serialize(Ta, T'b)
        commit(&m, c).unwrap(); // t4: serialize(Tc, T'a)
        let f = begin(&m);
        let fin = view(&rows, &f);
        let keys: Vec<i64> = fin.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(keys, vec![-5, 0, 20, 30, 40, 50, 60, 70, 80, 90]);
        let v50 = fin.iter().find(|r| r[0] == Value::Int(50)).unwrap();
        assert_eq!(v50[1], Value::Int(55));
    }

    #[test]
    fn tz_pruned_when_no_overlap() {
        let m = layers();
        let mut a = begin(&m);
        a.trans.add_delete(0, &[Value::Int(0)]);
        commit(&m, a).unwrap();
        // no running transactions: the delta is retained only while needed
        // (a layers object prunes when it is next locked — here by `begin`)
        let reader = begin(&m);
        assert_eq!(m.tz_retained(), 0);
        // with a long-running reader, deltas are retained...
        let mut b = begin(&m);
        b.trans.add_delete(1, &[Value::Int(20)]);
        commit(&m, b).unwrap();
        assert_eq!(m.tz_retained(), 1);
        // ...until the reader finishes
        abort(&m, reader);
        let mut c = begin(&m);
        c.trans.add_delete(0, &[Value::Int(10)]);
        commit(&m, c).unwrap();
        m.snapshot();
        assert_eq!(m.tz_retained(), 0);
    }

    #[test]
    fn write_snapshot_shared_between_commits() {
        let m = layers();
        let a = begin(&m);
        let b = begin(&m);
        // no commit in between: both share the master Write-PDT's Arc
        assert!(Arc::ptr_eq(&a.snap.write, &b.snap.write));
        abort(&m, a);
        let mut c = begin(&m);
        c.trans.add_delete(0, &[Value::Int(0)]);
        commit(&m, c).unwrap();
        let d = begin(&m);
        assert!(!Arc::ptr_eq(&b.snap.write, &d.snap.write));
        // the commit copied the version `b` still holds, not changed it
        assert!(b.snap.write.is_empty());
        assert_eq!(d.snap.write.len(), 1);
    }

    #[test]
    fn layers_are_copied_only_while_a_capture_holds_them() {
        let m = layers();
        let addr = |p: &Arc<Pdt>| Arc::as_ptr(p) as usize;
        let mut a = begin(&m);
        a.trans.add_delete(0, &[Value::Int(0)]);
        let write = addr(&a.snap.write);
        // a committer that drops its capture first publishes in place
        let TestTxn {
            id,
            start_seq,
            snap,
            trans,
        } = a;
        drop(snap);
        let _commit = m.mgr.commit_guard();
        let delta = Arc::new(m.serialize(trans, start_seq).unwrap());
        m.publish(delta, m.mgr.alloc_seq());
        m.mgr.end_txn(id);
        drop(_commit);
        let b = begin(&m);
        assert_eq!(addr(&b.snap.write), write, "unshared Write-PDT copied");
        assert_eq!(b.snap.write.len(), 1);
        // a flush while `b` holds both layers copies the Read-PDT it moves
        // the Write-PDT into; `b` keeps seeing the old versions
        m.flush();
        let c = begin(&m);
        assert_ne!(addr(&b.snap.read), addr(&c.snap.read));
        assert!(b.snap.read.is_empty() && b.snap.write.len() == 1);
        assert!(c.snap.read.len() == 1 && c.snap.write.is_empty());
        // once nothing else holds the Read-PDT, a flush moves into it in
        // place
        drop(b);
        let read = addr(&c.snap.read);
        drop(c);
        let mut d = begin(&m);
        d.trans.add_delete(0, &[Value::Int(10)]);
        commit(&m, d).unwrap();
        m.flush();
        let e = begin(&m);
        assert_eq!(addr(&e.snap.read), read, "unshared Read-PDT copied");
        assert_eq!(e.snap.read.len(), 2);
    }

    #[test]
    fn flush_write_to_read_preserves_view() {
        let m = layers();
        let rows = base(6);
        let mut a = begin(&m);
        a.trans.add_delete(2, &[Value::Int(20)]);
        a.trans.add_insert(0, 0, &[Value::Int(-1), Value::Int(0)]);
        commit(&m, a).unwrap();
        let before = view(&rows, &begin(&m));
        m.flush();
        let after_txn = begin(&m);
        assert!(
            after_txn.snap.write.is_empty(),
            "write layer emptied by flush"
        );
        assert!(!after_txn.snap.read.is_empty());
        let after = view(&rows, &after_txn);
        assert_eq!(before, after, "flush must not change the visible image");
    }

    #[test]
    fn checkpoint_pin_merge_install() {
        let m = layers();
        let rows = base(6);
        let mut a = begin(&m);
        a.trans.add_delete(2, &[Value::Int(20)]);
        commit(&m, a).unwrap();
        let pinned = m.pin().expect("dirty table pins");
        // a commit lands while the caller merges off-lock: it goes to the
        // fresh master Write-PDT, positioned relative to the pinned image
        let mut b = begin(&m);
        b.trans.add_modify(0, 1, &Value::Int(70));
        commit(&m, b).unwrap();
        let new_rows = merge_rows(&rows, &pinned);
        assert_eq!(new_rows.len(), 5);
        m.install(&pinned, Pdt::new(schema(), vec![0]));
        // read layer is now empty; the mid-merge commit survives on top of
        // the new stable image
        let t = begin(&m);
        assert!(t.snap.read.is_empty());
        let fin = view(&new_rows, &t);
        assert_eq!(fin.len(), 5);
        assert_eq!(fin[0][1], Value::Int(70));
        // pinning again folds the surviving Write-PDT; once that is also
        // installed the table is clean and pinning yields nothing
        let pinned = m.pin().expect("write layer still dirty");
        let final_rows = merge_rows(&new_rows, &pinned);
        m.install(&pinned, Pdt::new(schema(), vec![0]));
        assert_eq!(view(&final_rows, &begin(&m)), final_rows);
        assert!(m.pin().is_none(), "clean table pins nothing");
    }

    #[test]
    #[should_panic(expected = "changed between checkpoint pin and install")]
    fn install_detects_unserialized_maintenance() {
        let m = layers();
        let mut a = begin(&m);
        a.trans.add_delete(0, &[Value::Int(0)]);
        commit(&m, a).unwrap();
        let pinned = m.pin().unwrap();
        // a concurrent (unserialized) flush swaps the Read-PDT out from
        // under the pin: install must refuse to reset the wrong layer
        let mut b = begin(&m);
        b.trans.add_delete(0, &[Value::Int(10)]);
        commit(&m, b).unwrap();
        m.flush();
        m.install(&pinned, Pdt::new(schema(), vec![0]));
    }

    #[test]
    fn read_only_commit_is_trivial() {
        let m = layers();
        let a = begin(&m);
        let seq_before = m.mgr.seq();
        commit(&m, a).unwrap();
        assert_eq!(m.mgr.seq(), seq_before);
    }

    #[test]
    fn concurrent_commits_from_threads() {
        let m = layers();
        let rows = Arc::new(base(100));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                let mut ok = 0;
                for i in 0..20u64 {
                    let mut txn = begin(&m);
                    // each thread modifies its own column-1 values on a
                    // distinct row → occasional conflicts on same rows
                    let rid = (t * 7 + i * 13) % 100;
                    // rid may drift as rows are deleted; use modify only
                    txn.trans
                        .add_modify(rid % 90, 1, &Value::Int((t * 1000 + i) as i64));
                    if commit(&m, txn).is_ok() {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        let total: i32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "some commits must succeed");
        // final state must be a valid merge
        let f = begin(&m);
        let fin = view(&rows, &f);
        assert_eq!(fin.len(), 100);
    }

    // --- WAL durability: commit through a WAL-backed manager, recover into
    // a fresh one, compare the visible image ---

    fn str_schema() -> Schema {
        Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Str)])
    }

    fn str_base(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| vec![Value::Int(i * 10), Value::Str(format!("s{i}"))])
            .collect()
    }

    fn wal_layers(wal_path: &Path) -> Arc<PdtLayers> {
        let mgr = TxnManager::with_wal(wal_path).unwrap();
        layers_on(Arc::new(mgr), str_schema())
    }

    fn committed_view(rows: &[Tuple], m: &Arc<PdtLayers>) -> Vec<Tuple> {
        let t = begin(m);
        let v = view(rows, &t);
        abort(m, t);
        v
    }

    #[test]
    fn recovery_reproduces_committed_state() {
        let dir = std::env::temp_dir().join(format!("pdt-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("recovery_reproduces.wal");
        let _ = std::fs::remove_file(&wal_path);

        let rows = str_base(10);
        let committed;
        {
            let m = wal_layers(&wal_path);

            let mut a = begin(&m);
            a.trans
                .add_insert(3, 3, &[Value::Int(25), Value::Str("ins".into())]);
            a.trans.add_modify(5, 1, &Value::Str("mod".into()));
            commit(&m, a).unwrap();

            let mut b = begin(&m);
            b.trans.add_delete(0, &[Value::Int(0)]);
            commit(&m, b).unwrap();

            // an aborted transaction must NOT be recovered
            let mut c = begin(&m);
            c.trans.add_delete(0, &[Value::Int(10)]);
            abort(&m, c);

            committed = committed_view(&rows, &m);
        }

        // crash & recover
        let m2 = wal_layers(&wal_path);
        let last_seq = recover(&m2, &wal_path).unwrap();
        assert_eq!(last_seq, 2);
        assert_eq!(m2.mgr.seq(), 2);
        assert_eq!(committed_view(&rows, &m2), committed);

        // the recovered manager keeps working: new commits append to the log
        let mut d = begin(&m2);
        d.trans.add_delete(0, &[Value::Int(10)]);
        assert_eq!(commit(&m2, d).unwrap(), 3);
        let after = committed_view(&rows, &m2);

        let m3 = wal_layers(&wal_path);
        recover(&m3, &wal_path).unwrap();
        assert_eq!(committed_view(&rows, &m3), after);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_from_missing_wal_is_empty() {
        let m = layers_on(Arc::new(TxnManager::new()), str_schema());
        let path = std::env::temp_dir().join("pdt-wal-definitely-missing.wal");
        let _ = std::fs::remove_file(&path);
        assert_eq!(recover(&m, &path).unwrap(), 0);
        assert_eq!(committed_view(&str_base(3), &m), str_base(3));
    }
}
