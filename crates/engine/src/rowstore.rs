//! [`DeltaStore`] over a copy-on-write row buffer — the classic
//! write-optimized delta-store baseline (Krueger et al.; "Teaching an Old
//! Elephant New Tricks"), behind the same transactional lifecycle as the
//! PDT and VDT stores.
//!
//! Committed state is one consolidated [`RowBuffer`] published behind an
//! `Arc`: readers snapshot the pointer and are never blocked. Commits
//! never mutate a published buffer — `publish` clones the committed
//! buffer, applies the transaction's ops, and swaps the copy in
//! (copy-on-write), additionally appending the ops as a versioned
//! [`RowRun`]. `prepare` validates a transaction against exactly the runs
//! published after its begin version via the footprint-based
//! [`ConflictSet`] — a third write-write detection mechanism next to the
//! PDT's TZ-set serialization and the VDT's value-wise replay, required to
//! reach the same abort/commit decisions.
//!
//! The run history is cleared at checkpoints (which also reset the
//! buffer); like the VDT store, a transaction spanning a checkpoint
//! validates against the post-checkpoint state only.

use crate::delta::{
    apply_key_entries, key_residual_entries, replay_error, rewrite_range, CheckpointPin,
    CompactRange, DeltaSnapshot, DeltaStore, DeltaTxn, RangeMerge, ResidualLog, UpdatePolicy,
};
use crate::DbError;
use columnar::{IoTracker, SkKey, StableTable, Tuple, Value};
use exec::DeltaLayers;
use parking_lot::RwLock;
use rowstore::{ConflictSet, RowBuffer, RowOp, RowRun, Slot};
use std::borrow::Cow;
use std::sync::Arc;
use txn::wal::WalEntry;

/// [`DeltaStore`] over an uncompressed copy-on-write row buffer. A cheap
/// handle: the snapshots, staging areas and pins it hands out each carry a
/// clone.
#[derive(Clone)]
pub struct RowStore {
    state: Arc<RwLock<RowState>>,
}

struct RowState {
    table: String,
    committed: Arc<RowBuffer>,
    /// Ops of every commit since the last checkpoint, tagged with the
    /// buffer version each produced (prepare-time conflict validation).
    runs: Vec<Arc<RowRun>>,
    /// Bumped on every publish / checkpoint / replay.
    version: u64,
    /// Commit retention for the in-flight checkpoint, if any. (The raw
    /// [`RowOp`]s in `runs` would not do for the residual rebuild: their
    /// pre-images can predate a commit the pin already folded into the
    /// image.)
    residual: ResidualLog,
}

impl RowStore {
    /// An empty copy-on-write row-store for `table`.
    pub fn new(table: String, schema: columnar::Schema, sk_cols: Vec<usize>) -> Self {
        RowStore {
            state: Arc::new(RwLock::new(RowState {
                table,
                committed: Arc::new(RowBuffer::new(schema, sk_cols)),
                runs: Vec::new(),
                version: 0,
                residual: ResidualLog::new(),
            })),
        }
    }
}

impl crate::delta::KeyEntrySink for RowBuffer {
    fn apply_insert(&mut self, tuple: Vec<Value>) {
        self.insert(tuple);
    }

    fn apply_insert_batch(&mut self, tuples: Vec<Tuple>) {
        // batched entries from one `append` are key-sorted and take the
        // single-merge-pass path; coalesced runs of independent statements
        // may not be — fall back to the row loop for those
        let sk = self.sk_cols().to_vec();
        let sorted = tuples.windows(2).all(|w| {
            sk.iter()
                .map(|&c| &w[0][c])
                .lt(sk.iter().map(|&c| &w[1][c]))
        });
        if sorted {
            self.insert_batch(tuples);
        } else {
            for t in tuples {
                self.insert(t);
            }
        }
    }

    fn apply_delete(&mut self, key: &[Value]) {
        self.delete_key(key);
    }

    fn entry_widths(&self) -> (usize, usize) {
        (self.schema().len(), self.sk_cols().len())
    }
}

struct RowSnapshot {
    store: RowStore,
    buf: Arc<RowBuffer>,
    version: u64,
}

impl DeltaSnapshot for RowSnapshot {
    fn layers(&self) -> DeltaLayers<'_> {
        if self.buf.is_empty() {
            DeltaLayers::None
        } else {
            DeltaLayers::Rows(&self.buf)
        }
    }

    fn delta_total(&self) -> i64 {
        self.buf.delta_total()
    }

    fn begin(&self, _start_seq: u64) -> Box<dyn DeltaTxn> {
        Box::new(RowTxn {
            store: self.store.clone(),
            working: (*self.buf).clone(),
            base_version: self.version,
            ops: Vec::new(),
        })
    }
}

struct RowTxn {
    store: RowStore,
    /// Begin-time committed buffer with the staged ops already folded in —
    /// what this transaction's own scans merge.
    working: RowBuffer,
    base_version: u64,
    /// The logical ops, kept for validation, WAL flattening and publish.
    ops: Vec<RowOp>,
}

impl DeltaTxn for RowTxn {
    fn layers(&self) -> DeltaLayers<'_> {
        if self.working.is_empty() {
            DeltaLayers::None
        } else {
            DeltaLayers::Rows(&self.working)
        }
    }

    fn delta_total(&self) -> i64 {
        self.working.delta_total()
    }

    fn is_dirty(&self) -> bool {
        !self.ops.is_empty()
    }

    /// The row store's vectorized staging — the structure that profits
    /// most: its sorted slot run absorbs a whole key-sorted batch in **one
    /// merge pass** (O(buffer + batch)) where the row loop pays an
    /// O(buffer) memmove per row. The statement also stays one op, so
    /// commit publication replays it as one merge pass again.
    fn stage_batch(&mut self, batch: &crate::batch::DmlBatch) {
        use crate::batch::DmlBatch;
        match batch {
            DmlBatch::Insert { rows, .. } => {
                let tuples = rows.rows();
                self.working.insert_batch(tuples.clone());
                match tuples.len() {
                    0 => {}
                    1 => self
                        .ops
                        .push(RowOp::Insert(tuples.into_iter().next().unwrap())),
                    _ => self.ops.push(RowOp::InsertBatch(tuples)),
                }
            }
            DmlBatch::Delete { pre, .. } => {
                let pres = pre.rows();
                self.working.delete_batch(&pres);
                match pres.len() {
                    0 => {}
                    1 => self.ops.push(RowOp::Delete {
                        pre: pres.into_iter().next().unwrap(),
                    }),
                    _ => self.ops.push(RowOp::DeleteBatch { pres }),
                }
            }
            DmlBatch::UpdateCol {
                rids,
                col,
                values,
                pre,
            } => {
                for i in 0..rids.len() {
                    let row = pre.row(i);
                    let value = values.get(i);
                    self.working.modify(&row, *col, value.clone());
                    self.ops.push(RowOp::Modify {
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
            // fast path: nothing committed since begin
            return Ok(());
        }
        // validate against exactly the runs published after our begin
        let mut concurrent = ConflictSet::new();
        let sk_cols = st.committed.sk_cols().to_vec();
        for run in st.runs.iter().filter(|r| r.version > self.base_version) {
            concurrent.add_run(run, &sk_cols);
        }
        for op in &self.ops {
            concurrent
                .check(op, &sk_cols)
                .map_err(|reason| DbError::Conflict {
                    table: st.table.clone(),
                    reason,
                })?;
        }
        Ok(())
    }

    fn wal_entries(&self) -> Vec<WalEntry> {
        let st = self.store.state.read();
        let sk_cols = st.committed.sk_cols().to_vec();
        let sk_of = |t: &[Value]| -> SkKey { sk_cols.iter().map(|&c| t[c].clone()).collect() };
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
        let mut post: std::collections::HashMap<SkKey, Vec<Value>> =
            std::collections::HashMap::new();
        let mut entries = Vec::new();
        for op in &self.ops {
            match op {
                RowOp::Insert(t) => {
                    post.insert(sk_of(t), t.clone());
                    entries.push(entry(pdt::INS, t.clone()));
                }
                RowOp::InsertBatch(ts) => {
                    // one batched entry for the whole statement
                    let mut flat = Vec::with_capacity(ts.len() * ts.first().map_or(0, Vec::len));
                    for t in ts {
                        post.insert(sk_of(t), t.clone());
                        flat.extend(t.iter().cloned());
                    }
                    entries.push(entry(pdt::INS_BATCH, flat));
                }
                RowOp::Delete { pre } => {
                    let key = sk_of(pre);
                    post.remove(&key);
                    entries.push(entry(pdt::DEL, key));
                }
                RowOp::DeleteBatch { pres } => {
                    let mut flat = Vec::with_capacity(pres.len() * sk_cols.len());
                    for pre in pres {
                        let key = sk_of(pre);
                        post.remove(&key);
                        flat.extend(key);
                    }
                    entries.push(entry(pdt::DEL_BATCH, flat));
                }
                RowOp::Modify { pre, col, value } => {
                    let key = sk_of(pre);
                    let t = post.entry(key.clone()).or_insert_with(|| {
                        st.committed
                            .pending_put(&key)
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
        txn::wal::coalesce_entries(entries)
    }

    fn publish(self: Box<Self>, seq: u64, entries: &[WalEntry]) {
        let RowTxn { store, ops, .. } = *self;
        let mut st = store.state.write();
        // copy-on-write: never mutate the published buffer readers hold
        let mut fresh = (*st.committed).clone();
        for op in &ops {
            op.apply(&mut fresh);
        }
        st.committed = Arc::new(fresh);
        st.version += 1;
        let version = st.version;
        st.runs.push(Arc::new(RowRun { version, ops }));
        st.residual.record(seq, entries);
    }
}

/// Pinned state of an in-flight row-store checkpoint.
struct RowPin {
    store: RowStore,
    seq: u64,
    buf: Arc<RowBuffer>,
    version: u64,
}

impl CheckpointPin for RowPin {
    fn seq(&self) -> u64 {
        self.seq
    }

    fn merge(
        &self,
        stable: &StableTable,
        range: &CompactRange,
        io: &IoTracker,
    ) -> Result<RangeMerge, DbError> {
        let pinned = self;
        let empty = || RowBuffer::new(pinned.buf.schema().clone(), pinned.buf.sk_cols().to_vec());
        let mut residual = empty();
        let mut residual_entries = Vec::new();
        let folded = if range.covers_all_keys() {
            Cow::Borrowed(&*pinned.buf)
        } else {
            // split the pinned buffer's sorted slot run by the range's key
            // window, reconstructing each half through the public ops:
            // Tombstone → delete_key, Put{hides_stable} → delete_key +
            // insert (the insert over its own tombstone re-hides the
            // stable row)
            let mut folded = empty();
            let mut res_dels: Vec<SkKey> = Vec::new();
            let mut res_inss: Vec<Tuple> = Vec::new();
            for (key, slot) in pinned.buf.slots() {
                let in_win = range.key_in_window(key);
                let half = if in_win { &mut folded } else { &mut residual };
                match slot {
                    Slot::Tombstone => {
                        half.delete_key(key);
                        if !in_win {
                            res_dels.push(key.clone());
                        }
                    }
                    Slot::Put { row, hides_stable } => {
                        if *hides_stable {
                            half.delete_key(key);
                            if !in_win {
                                res_dels.push(key.clone());
                            }
                        }
                        half.insert(row.clone());
                        if !in_win {
                            res_inss.push(row.clone());
                        }
                    }
                }
            }
            residual_entries = key_residual_entries(res_dels, res_inss);
            Cow::Owned(folded)
        };
        // a net-zero fold (e.g. insert + delete of the same key): the
        // current image already equals the merged one; install still
        // retires the covered run history and commit log
        let fresh = (!folded.is_empty())
            .then(|| rewrite_range(stable, range, io, |rows| folded.merge_rows(rows)))
            .transpose()?;
        let (store, pin_seq, pin_version) = (self.store.clone(), self.seq, self.version);
        let install = move || {
            let mut st = store.state.write();
            // commits published during the merge survive on top of the
            // out-of-window residual; their runs stay for the footprint
            // validation of transactions that began before the pin
            st.residual.rebuild_into(pin_seq, &mut residual);
            st.committed = Arc::new(residual);
            st.runs.retain(|r| r.version > pin_version);
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

impl DeltaStore for RowStore {
    fn policy(&self) -> UpdatePolicy {
        UpdatePolicy::RowStore
    }

    fn snapshot(&self) -> Arc<dyn DeltaSnapshot> {
        let st = self.state.read();
        Arc::new(RowSnapshot {
            store: self.clone(),
            buf: st.committed.clone(),
            version: st.version,
        })
    }

    fn replay(&self, entries: &[WalEntry]) -> Result<(), DbError> {
        let mut guard = self.state.write();
        let st = &mut *guard;
        st.version += 1;
        // recovery holds no snapshots, so make_mut mutates in place
        apply_key_entries(entries, Arc::make_mut(&mut st.committed))
            .map_err(|detail| replay_error(&st.table, detail))
    }

    fn write_bytes(&self) -> usize {
        self.state.read().committed.heap_bytes()
    }

    fn delta_bytes(&self) -> usize {
        // the run history counts too: under churn (insert then delete of
        // the same key) the net buffer stays tiny while runs grow with
        // every commit — the checkpoint budget must see that growth, or
        // the scheduler never retires it
        let st = self.state.read();
        st.committed.heap_bytes() + st.runs.iter().map(|r| r.heap_bytes()).sum::<usize>()
    }

    fn flush(&self) -> bool {
        // single-layer structure: checkpoint is the only migration
        false
    }

    fn checkpoint_pin(&self, seq: u64) -> Option<Box<dyn CheckpointPin>> {
        let mut st = self.state.write();
        if st.committed.is_empty() && st.runs.is_empty() {
            return None;
        }
        st.residual.pin(seq);
        Some(Box::new(RowPin {
            store: self.clone(),
            seq,
            buf: st.committed.clone(),
            version: st.version,
        }))
    }
}
