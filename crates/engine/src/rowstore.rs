//! The copy-on-write row buffer — the classic write-optimized delta-store
//! baseline (Krueger et al.; "Teaching an Old Elephant New Tricks") —
//! behind the same transactional lifecycle as the PDT and VDT stores:
//! `KeyStore<RowBuffer>` is the store, and this module is everything the
//! row buffer has to say to it, [`KeyDelta`] for [`RowBuffer`].

use crate::delta::{KeyDelta, UpdatePolicy};
use columnar::{KeyOp, Schema, SkKey, Tuple, Value};
use exec::DeltaLayers;
use rowstore::{ConflictSet, RowBuffer, RowRun, Slot};
use std::sync::Arc;

/// Committed state is one consolidated [`RowBuffer`] published behind an
/// `Arc`; every commit additionally appends its ops to the history as a
/// versioned [`RowRun`]. [`KeyDelta::rebase`] validates a transaction
/// against exactly the runs published after its begin version via the
/// footprint-based [`ConflictSet`] — a third write-write detection
/// mechanism next to the PDT's TZ-set serialization and the VDT's
/// value-wise replay, required to reach the same abort/commit decisions.
///
/// The run history is cleared at checkpoints (which also reset the
/// buffer); like the VDT store, a transaction spanning a checkpoint
/// validates against the post-checkpoint state only.
impl KeyDelta for RowBuffer {
    /// Ops of every commit since the last checkpoint, tagged with the
    /// buffer version each produced.
    type History = Vec<Arc<RowRun>>;
    const POLICY: UpdatePolicy = UpdatePolicy::RowStore;

    fn new(schema: Schema, sk_cols: Vec<usize>) -> Self {
        RowBuffer::new(schema, sk_cols)
    }

    fn schema(&self) -> &Schema {
        self.schema()
    }

    fn sk_cols(&self) -> &[usize] {
        self.sk_cols()
    }

    fn layers(&self) -> DeltaLayers<'_> {
        DeltaLayers::Rows(self)
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

    /// The structure that profits most from one op per statement: its
    /// sorted slot run absorbs a whole key-sorted batch in **one merge
    /// pass** (O(buffer + batch)) where a row loop pays an O(buffer)
    /// memmove per row.
    fn apply_op(&mut self, op: &KeyOp) {
        self.apply(op);
    }

    fn apply_inserts(&mut self, mut tuples: Vec<Tuple>) {
        // one statement's entry is key-sorted already; an entry extended
        // by the next statement's rows may not be (its keys are distinct:
        // re-inserting a key needs a delete entry between)
        let sk = self.sk_cols();
        tuples.sort_by(|a, b| sk.iter().map(|&c| &a[c]).cmp(sk.iter().map(|&c| &b[c])));
        self.insert_batch(tuples);
    }

    fn apply_delete(&mut self, key: &[Value]) {
        self.delete_key(key);
    }

    fn pending(&self, key: &[Value]) -> Option<&Tuple> {
        self.pending_put(key)
    }

    /// One item per slot of the sorted run: a tombstone hides, a put shows
    /// its row and may hide as well.
    fn contents(&self) -> impl Iterator<Item = (&SkKey, bool, Option<&Tuple>)> {
        self.slots().iter().map(|(key, slot)| match slot {
            Slot::Tombstone => (key, true, None),
            Slot::Put { row, hides_stable } => (key, *hides_stable, Some(row)),
        })
    }

    /// Validate against exactly the runs published after the transaction's
    /// begin, then copy-on-write: the published buffer readers hold is
    /// never mutated, the ops are applied to a clone.
    fn rebase(
        committed: &RowBuffer,
        runs: &Vec<Arc<RowRun>>,
        base_version: u64,
        ops: &[KeyOp],
    ) -> Result<RowBuffer, String> {
        let sk_cols = committed.sk_cols();
        let mut concurrent = ConflictSet::new();
        for run in runs.iter().filter(|r| r.version > base_version) {
            concurrent.add_run(run, sk_cols);
        }
        ops.iter()
            .try_for_each(|op| concurrent.check(op, sk_cols))?;
        let mut fresh = committed.clone();
        for op in ops {
            fresh.apply(op);
        }
        Ok(fresh)
    }

    fn record(runs: &mut Vec<Arc<RowRun>>, version: u64, ops: Vec<KeyOp>) {
        runs.push(Arc::new(RowRun { version, ops }));
    }

    fn retire(runs: &mut Vec<Arc<RowRun>>, version: u64) {
        runs.retain(|r| r.version > version);
    }

    fn history_bytes(runs: &Vec<Arc<RowRun>>) -> usize {
        runs.iter().map(|r| r.heap_bytes()).sum()
    }
}
