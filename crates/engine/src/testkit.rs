//! Cross-backend differential test harness.
//!
//! Three independently implemented update structures sit behind
//! [`DeltaStore`](crate::DeltaStore); driven by identical DML they must
//! agree **bit-for-bit** — on scan images, row counts, commit/abort
//! decisions, and recovered state. [`DiffHarness`] turns that invariant
//! into an executable oracle: every workload step is applied through the
//! same transactional API to one database per [`UpdatePolicy`] *and* to
//! the executable specification [`NaiveImage`], then all four images are
//! compared. The workspace's fuzz tests, lifecycle tests and DML unit
//! tests all drive their workloads through this module, so any behavioural
//! divergence between PDT, VDT and the row store fails loudly and with a
//! readable diff.
//!
//! With [`DiffHarness::with_wal`] every database is WAL-backed, and
//! [`DiffHarness::crash_recover`] models a crash: all databases are
//! dropped and rebuilt from their base image plus WAL replay — recovery
//! state is part of the differential contract. Checkpoints in WAL mode
//! rotate the log *logically*: the engine appends a checkpoint marker at
//! the pinned commit sequence, the harness restarts its recovery base
//! from the checkpointed image, and replay skips every record the marker
//! covers — the log-truncation bargain checkpointing buys a real system,
//! stated in a way that stays correct when commits land mid-checkpoint.
//!
//! [`run_interleaved`] extends the oracle to concurrency: a fixed
//! two-transaction interleaving is executed against every policy and the
//! per-transaction commit/abort decisions plus the final image must match
//! — the PDT's TZ-set serialization, the VDT's value-wise replay and the
//! row store's run-footprint validation have to reach the same verdicts.
//!
//! [`run_concurrent_differential`] goes further: real threads. Fixed-seed
//! writer scripts on disjoint key partitions, scanner threads asserting
//! snapshot invariants on every pass, and the background
//! [`MaintenanceScheduler`](crate::MaintenanceScheduler) flushing and
//! checkpointing with tiny budgets — per-partition determinism makes the
//! final image interleaving-independent, so concurrency bugs surface as
//! differential divergence from the sequential model.

use crate::{
    Database, DbError, DbTxn, PartitionSpec, ScanSpec, TableOptions, UpdatePolicy, ALL_POLICIES,
};
use columnar::{Schema, TableMeta, Tuple, Value};
use exec::expr::{col, lit, Expr};
use exec::{run_to_rows, Batch};
use pdt::naive::NaiveImage;
use std::path::PathBuf;

/// Equality predicate over a full sort key (one `col = lit` conjunct per
/// key column) — how every harness statement addresses its victim row.
pub fn key_eq_pred(sk_cols: &[usize], key: &[Value]) -> Expr {
    sk_cols
        .iter()
        .zip(key)
        .map(|(&c, v)| col(c).eq(lit(v.clone())))
        .reduce(|a, b| a.and(b))
        .expect("non-empty sort key")
}

/// Seam onto the sparse gather positional DML resolves its pre-images
/// with: columns `cols` of the rows at `rids` (ascending, distinct, global)
/// under `txn`'s view — what `scan_with(ScanSpec::cols(cols))` emits at
/// those positions, fetched without the scan.
pub fn gather_at(
    txn: &DbTxn<'_>,
    table: &str,
    rids: &[u64],
    cols: &[usize],
) -> Result<Batch, DbError> {
    txn.gather(table, rids, cols)
}

/// Seam onto the run-wise ranker `append` positions its rows with: per
/// touched partition, in split order, the partition-local rank of each of
/// `rows`' sort keys (in key order) among the rows visible to `txn`, or
/// the duplicate-key error `append` would return.
pub fn rank_rows(
    txn: &DbTxn<'_>,
    table: &str,
    rows: &Batch,
) -> Result<Vec<(usize, Vec<u64>)>, DbError> {
    let ranked = txn.rank_rows(table, rows, &Default::default())?;
    Ok(ranked.into_iter().map(|r| (r.part, r.base)).collect())
}

/// One database per update policy plus the naive model, driven in lockstep.
pub struct DiffHarness {
    table: String,
    schema: Schema,
    sk_cols: Vec<usize>,
    block_rows: usize,
    /// Stable image the databases were (re)built from — WAL recovery
    /// replays on top of this.
    base_rows: Vec<Tuple>,
    dbs: Vec<(UpdatePolicy, Database)>,
    model: NaiveImage,
    /// `Some(dir)`: databases are WAL-backed (one log per policy) and
    /// support [`Self::crash_recover`].
    wal_dir: Option<PathBuf>,
    /// Databases persist compressed checkpoint images (one image dir per
    /// policy under `wal_dir`) and recovery must restore checkpointed
    /// state from them: [`Self::checkpoint`] then keeps the *original*
    /// base image, so any folded history a checkpoint made unreplayable
    /// has to come back through the images — the differential contract
    /// image-based recovery is held to.
    images: bool,
    /// Range partitioning applied to every database. After the first
    /// build this is frozen to the *resolved* split points, so crash
    /// rebuilds recreate the exact partitioning the WAL's partition tags
    /// refer to.
    partitions: PartitionSpec,
}

impl DiffHarness {
    /// In-memory harness (no WAL, no recovery steps).
    pub fn new(
        table: &str,
        schema: Schema,
        sk_cols: Vec<usize>,
        rows: Vec<Tuple>,
        block_rows: usize,
    ) -> Self {
        Self::build(table, schema, sk_cols, rows, block_rows, None, false)
    }

    /// WAL-backed harness: one log file per policy under `dir` (removed on
    /// creation so every run starts clean).
    pub fn with_wal(
        dir: PathBuf,
        table: &str,
        schema: Schema,
        sk_cols: Vec<usize>,
        rows: Vec<Tuple>,
        block_rows: usize,
    ) -> Self {
        std::fs::create_dir_all(&dir).expect("harness wal dir");
        for policy in ALL_POLICIES {
            let _ = std::fs::remove_file(Self::wal_path(&dir, policy));
        }
        Self::build(table, schema, sk_cols, rows, block_rows, Some(dir), false)
    }

    /// WAL- and image-backed harness: each policy's database persists
    /// compressed checkpoint images under `dir` and
    /// [`Self::crash_recover`] exercises image-based recovery — the base
    /// image is *never* rotated by the harness, so checkpointed state must
    /// come back from disk.
    pub fn with_storage(
        dir: PathBuf,
        table: &str,
        schema: Schema,
        sk_cols: Vec<usize>,
        rows: Vec<Tuple>,
        block_rows: usize,
    ) -> Self {
        std::fs::create_dir_all(&dir).expect("harness storage dir");
        for policy in ALL_POLICIES {
            let _ = std::fs::remove_file(Self::wal_path(&dir, policy));
            let _ = std::fs::remove_dir_all(Self::image_dir(&dir, policy));
        }
        Self::build(table, schema, sk_cols, rows, block_rows, Some(dir), true)
    }

    fn wal_path(dir: &std::path::Path, policy: UpdatePolicy) -> PathBuf {
        dir.join(format!("{policy:?}.wal"))
    }

    fn image_dir(dir: &std::path::Path, policy: UpdatePolicy) -> PathBuf {
        dir.join(format!("{policy:?}.images"))
    }

    fn build(
        table: &str,
        schema: Schema,
        sk_cols: Vec<usize>,
        rows: Vec<Tuple>,
        block_rows: usize,
        wal_dir: Option<PathBuf>,
        images: bool,
    ) -> Self {
        let model = NaiveImage::new(&rows, sk_cols.clone());
        let mut h = DiffHarness {
            table: table.to_string(),
            schema,
            sk_cols,
            block_rows,
            base_rows: rows,
            dbs: Vec::new(),
            model,
            wal_dir,
            images,
            partitions: PartitionSpec::None,
        };
        h.dbs = h.make_dbs();
        h
    }

    /// Rebuild every database range-partitioned into `n` equi-depth
    /// partitions — the partitioned-vs-single-partition differential
    /// knob. Call right after construction (any prior workload is
    /// discarded). The resolved split points are frozen so WAL crash
    /// rebuilds recreate the identical partitioning.
    pub fn with_partitions(self, n: usize) -> Self {
        self.with_partition_spec(PartitionSpec::Count(n))
    }

    /// [`DiffHarness::with_partitions`] with explicit split points
    /// (empty partitions allowed) — what the proptests sweep.
    pub fn with_split_points(self, splits: Vec<Vec<Value>>) -> Self {
        self.with_partition_spec(PartitionSpec::SplitPoints(splits))
    }

    fn with_partition_spec(mut self, spec: PartitionSpec) -> Self {
        self.partitions = spec;
        if let Some(dir) = &self.wal_dir {
            for policy in ALL_POLICIES {
                let _ = std::fs::remove_file(Self::wal_path(dir, policy));
                if self.images {
                    let _ = std::fs::remove_dir_all(Self::image_dir(dir, policy));
                }
            }
        }
        self.dbs = self.make_dbs();
        let resolved = self.dbs[0]
            .1
            .partition_splits(&self.table)
            .expect("harness table exists");
        self.partitions = PartitionSpec::SplitPoints(resolved);
        self
    }

    /// Partition count of the harness databases.
    pub fn partition_count(&self) -> usize {
        self.dbs[0]
            .1
            .partition_count(&self.table)
            .expect("harness table exists")
    }

    fn make_dbs(&self) -> Vec<(UpdatePolicy, Database)> {
        ALL_POLICIES
            .iter()
            .map(|&policy| {
                let db = match &self.wal_dir {
                    Some(dir) if self.images => Database::with_storage(
                        &Self::wal_path(dir, policy),
                        &Self::image_dir(dir, policy),
                    )
                    .expect("open harness storage"),
                    Some(dir) => {
                        Database::with_wal(&Self::wal_path(dir, policy)).expect("open harness wal")
                    }
                    None => Database::new(),
                };
                db.create_table(
                    TableMeta::new(&self.table, self.schema.clone(), self.sk_cols.clone()),
                    TableOptions {
                        block_rows: self.block_rows,
                        policy,
                        partitions: self.partitions.clone(),
                        ..TableOptions::default()
                    },
                    self.base_rows.clone(),
                )
                .expect("harness create_table");
                (policy, db)
            })
            .collect()
    }

    /// The reference model.
    pub fn model(&self) -> &NaiveImage {
        &self.model
    }

    /// The databases, for workload steps the harness does not wrap.
    pub fn dbs(&self) -> impl Iterator<Item = (UpdatePolicy, &Database)> {
        self.dbs.iter().map(|(p, db)| (*p, db))
    }

    fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.sk_cols.iter().map(|&c| row[c].clone()).collect()
    }

    fn key_pred(&self, key: &[Value]) -> Expr {
        key_eq_pred(&self.sk_cols, key)
    }

    fn merged_image(db: &Database, table: &str) -> Vec<Tuple> {
        let view = db.read_view();
        run_to_rows(&mut view.scan_with(table, ScanSpec::all()).unwrap())
    }

    /// Assert every database's merged image, visible row count and policy
    /// tag agree with the model.
    pub fn assert_agree(&self, context: &str) {
        for (policy, db) in &self.dbs {
            assert_eq!(
                db.policy(&self.table).unwrap(),
                *policy,
                "{context}: policy tag"
            );
            let image = Self::merged_image(db, &self.table);
            assert_eq!(
                image,
                self.model.rows(),
                "{context}: {policy:?} image diverged from the model"
            );
            assert_eq!(
                db.row_count(&self.table).unwrap(),
                self.model.len() as u64,
                "{context}: {policy:?} row count"
            );
        }
    }

    /// Assert every database's *clean* (stable-image-only) scan equals the
    /// model — meaningful right after a checkpoint.
    pub fn assert_clean_agree(&self, context: &str) {
        for (policy, db) in &self.dbs {
            let view = db.clean_view();
            let clean = run_to_rows(&mut view.scan_with(&self.table, ScanSpec::all()).unwrap());
            assert_eq!(
                clean,
                self.model.rows(),
                "{context}: {policy:?} clean image diverged"
            );
        }
    }

    /// INSERT `tuple` through one committed transaction per database.
    /// Returns `false` when the model predicts a duplicate sort key — in
    /// which case every database must reject it identically.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        let key = self.key_of(&tuple);
        let dup = self.model.rows().iter().any(|r| self.key_of(r) == key);
        for (policy, db) in &self.dbs {
            let mut txn = db.begin();
            let res = txn.insert(&self.table, tuple.clone());
            if dup {
                assert!(
                    matches!(res, Err(DbError::DuplicateKey { .. })),
                    "{policy:?}: duplicate insert of {key:?} must be rejected, got {res:?}"
                );
                txn.abort();
            } else {
                res.unwrap_or_else(|e| panic!("{policy:?}: insert of {key:?} failed: {e}"));
                txn.commit()
                    .unwrap_or_else(|e| panic!("{policy:?}: insert commit failed: {e}"));
            }
        }
        if !dup {
            let pos = self
                .model
                .rows()
                .iter()
                .position(|r| self.key_of(r) > key)
                .unwrap_or(self.model.len());
            self.model.insert(pos, tuple);
        }
        self.assert_agree("after insert");
        !dup
    }

    /// APPEND a whole batch through one committed transaction per
    /// database. Returns `false` when the statement carries a duplicate
    /// sort key (intra-batch or against the model's visible image) — then
    /// every database must reject the whole statement identically.
    pub fn append(&mut self, rows: Vec<Tuple>) -> bool {
        let keys: Vec<Vec<Value>> = rows.iter().map(|r| self.key_of(r)).collect();
        let mut sorted_keys = keys.clone();
        sorted_keys.sort();
        let dup = sorted_keys.windows(2).any(|w| w[0] == w[1])
            || self
                .model
                .rows()
                .iter()
                .any(|r| keys.contains(&self.key_of(r)));
        let types = self.schema.types();
        for (policy, db) in &self.dbs {
            let mut txn = db.begin();
            let res = txn.append(&self.table, exec::Batch::from_rows(&types, &rows));
            if dup {
                assert!(
                    matches!(res, Err(DbError::DuplicateKey { .. })),
                    "{policy:?}: duplicate batch append must be rejected, got {res:?}"
                );
                txn.abort();
            } else {
                let n = res.unwrap_or_else(|e| panic!("{policy:?}: batch append failed: {e}"));
                assert_eq!(n, rows.len(), "{policy:?}");
                txn.commit()
                    .unwrap_or_else(|e| panic!("{policy:?}: append commit failed: {e}"));
            }
        }
        if !dup {
            for row in rows {
                let key = self.key_of(&row);
                let pos = self
                    .model
                    .rows()
                    .iter()
                    .position(|r| self.key_of(r) > key)
                    .unwrap_or(self.model.len());
                self.model.insert(pos, row);
            }
        }
        self.assert_agree("after batch append");
        !dup
    }

    /// DELETE the model's visible rows at `rids` (any order, duplicates
    /// ignored) through one positional `delete_rids` statement per
    /// database.
    pub fn delete_rids(&mut self, rids: &[u64]) {
        let mut sorted = rids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.retain(|&r| (r as usize) < self.model.len());
        for (policy, db) in &self.dbs {
            let mut txn = db.begin();
            let n = txn
                .delete_rids(&self.table, &sorted)
                .unwrap_or_else(|e| panic!("{policy:?}: delete_rids failed: {e}"));
            assert_eq!(n, sorted.len(), "{policy:?}");
            txn.commit()
                .unwrap_or_else(|e| panic!("{policy:?}: delete_rids commit failed: {e}"));
        }
        for &r in sorted.iter().rev() {
            self.model.delete(r as usize);
        }
        self.assert_agree("after delete_rids");
    }

    /// UPDATE a non-sort-key column of the model's visible rows at `rids`
    /// through one positional `update_col` statement per database.
    pub fn update_col(&mut self, rids: &[u64], col: usize, values: &[Value]) {
        assert!(
            !self.sk_cols.contains(&col),
            "update_col harness op is for non-key columns; use modify() for key rewrites"
        );
        let mut pairs: Vec<(u64, Value)> = rids
            .iter()
            .copied()
            .zip(values.iter().cloned())
            .filter(|(r, _)| (*r as usize) < self.model.len())
            .collect();
        pairs.sort_by_key(|p| p.0);
        pairs.dedup_by_key(|p| p.0);
        let rids: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let mut vals = columnar::ColumnVec::new(self.schema.vtype(col));
        for (_, v) in &pairs {
            vals.push(v);
        }
        for (policy, db) in &self.dbs {
            let mut txn = db.begin();
            let n = txn
                .update_col(&self.table, &rids, col, vals.clone())
                .unwrap_or_else(|e| panic!("{policy:?}: update_col failed: {e}"));
            assert_eq!(n, rids.len(), "{policy:?}");
            txn.commit()
                .unwrap_or_else(|e| panic!("{policy:?}: update_col commit failed: {e}"));
        }
        for (r, v) in pairs {
            self.model.modify(r as usize, col, v);
        }
        self.assert_agree("after update_col");
    }

    /// DELETE the model's visible row `rid` through one committed
    /// transaction per database (victims located by sort key).
    pub fn delete(&mut self, rid: usize) {
        let key = self.key_of(&self.model.rows()[rid]);
        let pred = self.key_pred(&key);
        for (policy, db) in &self.dbs {
            let mut txn = db.begin();
            let n = txn
                .delete_where(&self.table, pred.clone())
                .unwrap_or_else(|e| panic!("{policy:?}: delete of {key:?} failed: {e}"));
            assert_eq!(n, 1, "{policy:?}: delete of {key:?} must hit one row");
            txn.commit()
                .unwrap_or_else(|e| panic!("{policy:?}: delete commit failed: {e}"));
        }
        self.model.delete(rid);
        self.assert_agree("after delete");
    }

    /// UPDATE column `m_col` of the model's visible row `rid` through one
    /// committed transaction per database. Sort-key columns are allowed —
    /// the engines rewrite those as delete + insert, and the model follows
    /// by repositioning the row. Returns `false` when the rewrite would
    /// collide with an existing key (then every database must reject it).
    pub fn modify(&mut self, rid: usize, m_col: usize, value: Value) -> bool {
        let pre = self.model.rows()[rid].clone();
        let key = self.key_of(&pre);
        let pred = self.key_pred(&key);
        let touches_sk = self.sk_cols.contains(&m_col);
        let mut post = pre.clone();
        post[m_col] = value.clone();
        let new_key = self.key_of(&post);
        let collides = touches_sk
            && new_key != key
            && self.model.rows().iter().any(|r| self.key_of(r) == new_key);
        for (policy, db) in &self.dbs {
            let mut txn = db.begin();
            let res =
                txn.update_where(&self.table, pred.clone(), vec![(m_col, lit(value.clone()))]);
            if collides {
                assert!(
                    matches!(res, Err(DbError::DuplicateKey { .. })),
                    "{policy:?}: key rewrite {key:?}->{new_key:?} must collide, got {res:?}"
                );
                txn.abort();
            } else {
                let n = res.unwrap_or_else(|e| panic!("{policy:?}: modify of {key:?} failed: {e}"));
                assert_eq!(n, 1, "{policy:?}: modify of {key:?} must hit one row");
                txn.commit()
                    .unwrap_or_else(|e| panic!("{policy:?}: modify commit failed: {e}"));
            }
        }
        if !collides {
            if touches_sk {
                self.model.delete(rid);
                let pos = self
                    .model
                    .rows()
                    .iter()
                    .position(|r| self.key_of(r) > new_key)
                    .unwrap_or(self.model.len());
                self.model.insert(pos, post);
            } else {
                self.model.modify(rid, m_col, value);
            }
        }
        self.assert_agree("after modify");
        !collides
    }

    /// Migrate every database's write-optimised layer (no-op for the
    /// single-layer structures) and re-verify.
    pub fn flush(&mut self) {
        for (_, db) in &self.dbs {
            db.maybe_flush(&self.table, 0).unwrap();
        }
        self.assert_agree("after flush");
    }

    /// Checkpoint every database into a fresh stable image and verify both
    /// the merged and the clean views. In WAL mode this also rotates the
    /// logs *logically*: each checkpoint appends a marker carrying its
    /// pinned commit sequence, the databases stay live, and a later
    /// [`Self::crash_recover`] rebuilds from the checkpointed image while
    /// recovery skips every record the marker covers — the log-truncation
    /// bargain checkpointing buys a real system, without assuming commits
    /// pause around the checkpoint.
    pub fn checkpoint(&mut self) {
        for (policy, db) in &self.dbs {
            db.checkpoint(&self.table)
                .unwrap_or_else(|e| panic!("{policy:?}: checkpoint failed: {e}"));
        }
        self.assert_agree("after checkpoint");
        self.assert_clean_agree("after checkpoint");
        if self.wal_dir.is_some() && !self.images {
            // recovery restarts from the checkpointed image — but only in
            // plain WAL mode, where the harness must simulate the image
            // hand-off. With persisted images the engine recovers the
            // checkpointed state from disk on its own, so the base stays
            // put and any folded history must come back via the images.
            self.base_rows = self.model.rows().to_vec();
        }
    }

    /// Incrementally compact stable blocks `[b0, b1)` of partition `p`
    /// in every database and verify the merged view — the compaction
    /// differential step. The range is clamped per database to its
    /// current block count (compaction re-blocks, so geometries drift
    /// apart between policies only in row count, never in validity); a
    /// range clamped empty still runs at the end of the image, where it
    /// folds the append gap (the only step a block-less partition has).
    /// Other empty ranges, out-of-range partitions and pin-less
    /// (delta-free) partitions are no-ops, exactly as the scheduler
    /// treats them.
    pub fn compact(&mut self, p: usize, b0: usize, b1: usize) {
        for (policy, db) in &self.dbs {
            if p >= db.partition_count(&self.table).expect("harness table") {
                continue;
            }
            let nb = db
                .stable_partition(&self.table, p)
                .expect("harness partition")
                .num_blocks();
            let (b0, b1) = (b0.min(nb), b1.min(nb));
            if b0 > b1 || (b0 == b1 && b1 < nb) {
                continue;
            }
            db.compact_range(&self.table, p, b0, b1)
                .unwrap_or_else(|e| panic!("{policy:?}: compact_range failed: {e}"));
        }
        self.assert_agree("after compaction");
    }

    /// Attempt a maintenance step that dies *inside the crash window*: the
    /// new image is published (manifest swapped, kept blocks by reference)
    /// but the process "crashes" before the WAL marker lands. `range` is
    /// `Some((p, b0, b1))` for a compaction of blocks `[b0, b1)` of
    /// partition `p` (clamped per database like [`Self::compact`]), `None`
    /// for a whole-table checkpoint. Every database must report the
    /// simulated failure — so each policy's targeted delta must be
    /// non-empty and the range valid going in; an empty delta never
    /// reaches the publish — and roll its in-memory pin back; on-disk
    /// state is left exactly in the window a following
    /// [`Self::crash_recover`] has to tolerate. Requires
    /// [`Self::with_storage`].
    pub fn crash_before_marker(&mut self, range: Option<(usize, usize, usize)>) {
        assert!(
            self.images,
            "crash-window maintenance needs an image-backed harness"
        );
        for (policy, db) in &self.dbs {
            db.crash_after_image_publish(true);
            let res = match range {
                None => db.checkpoint(&self.table),
                Some((p, b0, b1)) => {
                    let nb = db
                        .stable_partition(&self.table, p)
                        .expect("harness partition")
                        .num_blocks();
                    db.compact_range(&self.table, p, b0.min(nb), b1.min(nb))
                        .map(|r| r.is_some())
                }
            };
            assert!(
                res.is_err(),
                "{policy:?}: armed step must die in the crash window, got {res:?}"
            );
            db.crash_after_image_publish(false);
        }
        // the aborted pin must leave the live image untouched
        self.assert_agree("after crashed maintenance step");
    }

    /// Crash: drop every database and rebuild it from its base image plus
    /// WAL replay, then verify the recovered state against the model.
    /// Panics unless the harness was built with [`Self::with_wal`].
    pub fn crash_recover(&mut self) {
        let dir = self
            .wal_dir
            .clone()
            .expect("crash_recover requires a WAL-backed harness");
        self.dbs.clear(); // drop live databases (the crash)
        self.dbs = self.make_dbs();
        for (policy, db) in &self.dbs {
            db.recover_from(&Self::wal_path(&dir, *policy))
                .unwrap_or_else(|e| panic!("{policy:?}: WAL recovery failed: {e}"));
        }
        self.assert_agree("after crash recovery");
    }
}

// --- Batch ≡ row-at-a-time differential harness --------------------------

/// Two WAL-backed databases of the *same* update policy, driven in
/// lockstep: one through the batch-first statements ([`crate::DbTxn::append`],
/// [`crate::DbTxn::delete_rids`], [`crate::DbTxn::update_col`]), one
/// through the equivalent row-at-a-time loops. After every step both must
/// agree on the merged image, visible row count, commit/abort/error
/// verdicts — and, via [`BatchRowHarness::crash_recover`], on the state
/// rebuilt from base image + WAL replay, which pins down that the batched
/// `INS_BATCH`/`DEL_BATCH` log encodings replay to exactly what the
/// per-row entries would have.
///
/// The table is fixed at `(k INT, a INT, b INT)` with sort key `k` —
/// enough to cover fresh inserts, reinserts over ghosts, sort-key
/// rewrites, and disjoint/overlapping column updates.
pub struct BatchRowHarness {
    policy: UpdatePolicy,
    base_rows: Vec<Tuple>,
    block_rows: usize,
    wal_dir: PathBuf,
    batched: Database,
    rowwise: Database,
}

/// The two driving modes of the harness.
const MODES: [&str; 2] = ["batched", "rowwise"];

impl BatchRowHarness {
    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("k", columnar::ValueType::Int),
            ("a", columnar::ValueType::Int),
            ("b", columnar::ValueType::Int),
        ])
    }

    /// WAL-backed pair under `dir` (recreated clean) over `base_keys` rows
    /// with keys `0, 10, 20, …`.
    pub fn new(dir: PathBuf, policy: UpdatePolicy, base_keys: i64, block_rows: usize) -> Self {
        std::fs::create_dir_all(&dir).expect("harness wal dir");
        for mode in MODES {
            let _ = std::fs::remove_file(dir.join(format!("{mode}.wal")));
        }
        let base_rows: Vec<Tuple> = (0..base_keys)
            .map(|i| vec![Value::Int(i * 10), Value::Int(i), Value::Int(-i)])
            .collect();
        let mut h = BatchRowHarness {
            policy,
            base_rows,
            block_rows,
            wal_dir: dir,
            batched: Database::new(),
            rowwise: Database::new(),
        };
        let (batched, rowwise) = h.make_dbs();
        h.batched = batched;
        h.rowwise = rowwise;
        h.assert_agree("fresh harness");
        h
    }

    fn make_db(&self, mode: &str) -> Database {
        let db = Database::with_wal(&self.wal_dir.join(format!("{mode}.wal")))
            .expect("open harness wal");
        db.create_table(
            TableMeta::new("t", Self::schema(), vec![0]),
            TableOptions {
                block_rows: self.block_rows,
                policy: self.policy,
                ..TableOptions::default()
            },
            self.base_rows.clone(),
        )
        .expect("harness create_table");
        db
    }

    fn make_dbs(&self) -> (Database, Database) {
        (self.make_db(MODES[0]), self.make_db(MODES[1]))
    }

    fn image(db: &Database) -> Vec<Tuple> {
        let view = db.read_view();
        run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1, 2])).unwrap())
    }

    /// Current visible row count (both databases agree by invariant).
    pub fn visible(&self) -> u64 {
        self.batched.row_count("t").unwrap()
    }

    /// Current visible image (both databases agree by invariant).
    pub fn rows(&self) -> Vec<Tuple> {
        Self::image(&self.batched)
    }

    /// Assert the two databases agree bit-for-bit.
    pub fn assert_agree(&self, context: &str) {
        let b = Self::image(&self.batched);
        let r = Self::image(&self.rowwise);
        assert_eq!(
            b, r,
            "{:?} {context}: batched and row-at-a-time images diverged",
            self.policy
        );
        assert_eq!(
            self.batched.row_count("t").unwrap(),
            self.rowwise.row_count("t").unwrap(),
            "{:?} {context}: row counts diverged",
            self.policy
        );
    }

    /// APPEND `(k, a)` rows (column `b` mirrors `a`): one `append` batch
    /// vs an `insert` loop, in one transaction each. Returns whether the
    /// statement committed — on a duplicate key both sides must reject.
    pub fn append(&mut self, kvs: &[(i64, i64)]) -> bool {
        let rows: Vec<Tuple> = kvs
            .iter()
            .map(|&(k, a)| vec![Value::Int(k), Value::Int(a), Value::Int(a ^ 1)])
            .collect();
        let mut txn = self.batched.begin();
        let batched_res = txn.append("t", exec::Batch::from_rows(&Self::schema().types(), &rows));
        let committed = match batched_res {
            Ok(n) => {
                assert_eq!(n, rows.len());
                txn.commit().expect("batched append commit");
                true
            }
            Err(DbError::DuplicateKey { .. }) => {
                txn.abort();
                false
            }
            Err(e) => panic!("{:?}: batched append failed oddly: {e}", self.policy),
        };
        let mut txn = self.rowwise.begin();
        let rowwise_res: Result<(), DbError> =
            rows.iter().try_for_each(|r| txn.insert("t", r.clone()));
        match rowwise_res {
            Ok(()) => {
                assert!(committed, "{:?}: only the batch rejected", self.policy);
                txn.commit().expect("rowwise insert commit");
            }
            Err(DbError::DuplicateKey { .. }) => {
                assert!(!committed, "{:?}: only the row loop rejected", self.policy);
                txn.abort();
            }
            Err(e) => panic!("{:?}: rowwise insert failed oddly: {e}", self.policy),
        }
        self.assert_agree("after append");
        committed
    }

    /// Victim keys and pre-images at `rids` (sorted, distinct, in range).
    fn victims_at(&self, rids: &[u64]) -> Vec<Tuple> {
        let all = self.rows();
        rids.iter().map(|&r| all[r as usize].clone()).collect()
    }

    /// DELETE by position: one `delete_rids` vs one per-key predicate
    /// delete per victim.
    pub fn delete_rids(&mut self, rids: &[u64]) {
        let mut rids = rids.to_vec();
        rids.sort_unstable();
        rids.dedup();
        let victims = self.victims_at(&rids);
        let mut txn = self.batched.begin();
        let n = txn.delete_rids("t", &rids).expect("batched delete_rids");
        assert_eq!(n, rids.len());
        txn.commit().expect("batched delete commit");
        let mut txn = self.rowwise.begin();
        for v in &victims {
            let n = txn
                .delete_where("t", col(0).eq(lit(v[0].clone())))
                .expect("rowwise delete");
            assert_eq!(n, 1, "{:?}: rowwise delete missed", self.policy);
        }
        txn.commit().expect("rowwise delete commit");
        self.assert_agree("after delete_rids");
    }

    /// UPDATE column `a` by position: one `update_col` vs one per-key
    /// predicate update per victim.
    pub fn update_col(&mut self, rids: &[u64], vals: &[i64]) {
        let mut pairs: Vec<(u64, i64)> = rids.iter().copied().zip(vals.iter().copied()).collect();
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
        let rids: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let vals: Vec<i64> = pairs.iter().map(|p| p.1).collect();
        let victims = self.victims_at(&rids);
        let mut txn = self.batched.begin();
        let n = txn
            .update_col("t", &rids, 1, columnar::ColumnVec::Int(vals.clone()))
            .expect("batched update_col");
        assert_eq!(n, rids.len());
        txn.commit().expect("batched update commit");
        let mut txn = self.rowwise.begin();
        for (v, &val) in victims.iter().zip(&vals) {
            let n = txn
                .update_where("t", col(0).eq(lit(v[0].clone())), vec![(1, lit(val))])
                .expect("rowwise update");
            assert_eq!(n, 1, "{:?}: rowwise update missed", self.policy);
        }
        txn.commit().expect("rowwise update commit");
        self.assert_agree("after update_col");
    }

    /// UPDATE the sort-key column by position — the §2.1 delete + insert
    /// rewrite, batched vs decomposed (all deletes, then all inserts, the
    /// order a single row-at-a-time statement uses). Returns whether the
    /// statement committed (a rewrite may collide with an existing key).
    pub fn update_keys(&mut self, rids: &[u64], new_keys: &[i64]) -> bool {
        let mut pairs: Vec<(u64, i64)> =
            rids.iter().copied().zip(new_keys.iter().copied()).collect();
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
        let rids: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let new_keys: Vec<i64> = pairs.iter().map(|p| p.1).collect();
        let victims = self.victims_at(&rids);
        let mut txn = self.batched.begin();
        let committed =
            match txn.update_col("t", &rids, 0, columnar::ColumnVec::Int(new_keys.clone())) {
                Ok(n) => {
                    assert_eq!(n, rids.len());
                    txn.commit().expect("batched key update commit");
                    true
                }
                Err(DbError::DuplicateKey { .. }) => {
                    txn.abort();
                    false
                }
                Err(e) => panic!("{:?}: batched key update failed oddly: {e}", self.policy),
            };
        let mut txn = self.rowwise.begin();
        let result: Result<(), DbError> = (|| {
            for v in &victims {
                txn.delete_where("t", col(0).eq(lit(v[0].clone())))?;
            }
            for (v, &k) in victims.iter().zip(&new_keys) {
                let mut row = v.clone();
                row[0] = Value::Int(k);
                txn.insert("t", row)?;
            }
            Ok(())
        })();
        match result {
            Ok(()) => {
                assert!(committed, "{:?}: only the batch rejected", self.policy);
                txn.commit().expect("rowwise key update commit");
            }
            Err(DbError::DuplicateKey { .. }) => {
                assert!(!committed, "{:?}: only the row loop rejected", self.policy);
                txn.abort();
            }
            Err(e) => panic!("{:?}: rowwise key update failed oddly: {e}", self.policy),
        }
        self.assert_agree("after update_keys");
        committed
    }

    /// Two concurrent transactions appending `a` and `b`: the batched
    /// databases stage whole batches, the row-wise ones loop — the
    /// prepare-time conflict verdicts (batch footprints vs per-row
    /// footprints) must match. Returns `(a_committed, b_committed)`.
    pub fn concurrent_appends(&mut self, a: &[(i64, i64)], b: &[(i64, i64)]) -> (bool, bool) {
        let row_of = |&(k, v): &(i64, i64)| -> Tuple {
            vec![Value::Int(k), Value::Int(v), Value::Int(v ^ 1)]
        };
        let a_rows: Vec<Tuple> = a.iter().map(row_of).collect();
        let b_rows: Vec<Tuple> = b.iter().map(row_of).collect();
        let mut verdicts = Vec::new();
        for (mode, db) in [(0, &self.batched), (1, &self.rowwise)] {
            let mut ta = db.begin();
            let mut tb = db.begin();
            let stage = |txn: &mut crate::DbTxn<'_>, rows: &[Tuple]| -> bool {
                if mode == 0 {
                    txn.append("t", exec::Batch::from_rows(&Self::schema().types(), rows))
                        .is_ok()
                } else {
                    rows.iter().all(|r| txn.insert("t", r.clone()).is_ok())
                }
            };
            let a_staged = stage(&mut ta, &a_rows);
            let b_staged = stage(&mut tb, &b_rows);
            let a_ok = if a_staged {
                ta.commit().is_ok()
            } else {
                ta.abort();
                false
            };
            let b_ok = if b_staged {
                tb.commit().is_ok()
            } else {
                tb.abort();
                false
            };
            verdicts.push((a_ok, b_ok));
        }
        assert_eq!(
            verdicts[0], verdicts[1],
            "{:?}: batched and row-wise interleavings reached different verdicts",
            self.policy
        );
        self.assert_agree("after concurrent appends");
        verdicts[0]
    }

    /// Flush both write-optimised layers and re-verify.
    pub fn flush(&mut self) {
        self.batched.maybe_flush("t", 0).unwrap();
        self.rowwise.maybe_flush("t", 0).unwrap();
        self.assert_agree("after flush");
    }

    /// Checkpoint both databases (rotating the recovery base, as markers
    /// make replay skip the covered commits) and re-verify.
    pub fn checkpoint(&mut self) {
        self.batched.checkpoint("t").expect("batched checkpoint");
        self.rowwise.checkpoint("t").expect("rowwise checkpoint");
        self.assert_agree("after checkpoint");
        self.base_rows = self.rows();
    }

    /// Crash both databases and rebuild them from base image + WAL replay
    /// — the batched log encodings must recover to the row-wise state.
    pub fn crash_recover(&mut self) {
        self.batched = Database::new();
        self.rowwise = Database::new(); // drop the live databases
        let (batched, rowwise) = self.make_dbs();
        self.batched = batched;
        self.rowwise = rowwise;
        for (mode, db) in MODES.iter().zip([&self.batched, &self.rowwise]) {
            db.recover_from(&self.wal_dir.join(format!("{mode}.wal")))
                .unwrap_or_else(|e| panic!("{:?}: {mode} recovery failed: {e}", self.policy));
        }
        self.assert_agree("after crash recovery");
    }
}

/// One statement of a scripted transaction for [`run_interleaved`].
#[derive(Debug, Clone)]
pub enum TxnOp {
    /// Insert a new tuple.
    Insert(Tuple),
    /// Delete the visible row with this sort key (0 or 1 victims).
    Delete {
        /// Sort key of the victim.
        key: Vec<Value>,
    },
    /// Set `col` of the visible row with this sort key (0 or 1 victims).
    Modify {
        /// Sort key of the target row.
        key: Vec<Value>,
        /// Column to set (never a sort-key column).
        col: usize,
        /// The new value.
        value: Value,
    },
}

/// Outcome of a two-transaction interleaving, identical across policies.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleavedOutcome {
    /// Did transaction A's statements and commit all succeed?
    pub a_ok: bool,
    /// Did transaction B's statements and commit all succeed?
    pub b_ok: bool,
    /// The final committed image.
    pub image: Vec<Tuple>,
}

/// Run the interleaving «begin A; begin B; A's ops; B's ops; commit A;
/// commit B» against one database per policy and assert that every policy
/// reaches the same per-transaction decision and the same final image.
/// Returns the common outcome.
pub fn run_interleaved(
    schema: Schema,
    sk_cols: Vec<usize>,
    rows: Vec<Tuple>,
    a_ops: &[TxnOp],
    b_ops: &[TxnOp],
) -> InterleavedOutcome {
    run_interleaved_spec(schema, sk_cols, rows, a_ops, b_ops, PartitionSpec::None)
}

/// [`run_interleaved`] over range-partitioned tables: the conflict
/// verdicts and final image must not depend on the partitioning, so a
/// caller typically runs the same interleaving under several specs and
/// asserts the outcomes are equal.
pub fn run_interleaved_spec(
    schema: Schema,
    sk_cols: Vec<usize>,
    rows: Vec<Tuple>,
    a_ops: &[TxnOp],
    b_ops: &[TxnOp],
    partitions: PartitionSpec,
) -> InterleavedOutcome {
    let key_pred = |key: &[Value]| -> Expr { key_eq_pred(&sk_cols, key) };
    let apply = |txn: &mut crate::DbTxn<'_>, op: &TxnOp| -> Result<(), DbError> {
        match op {
            TxnOp::Insert(t) => txn.insert("t", t.clone()),
            TxnOp::Delete { key } => txn.delete_where("t", key_pred(key)).map(|_| ()),
            TxnOp::Modify { key, col: c, value } => txn
                .update_where("t", key_pred(key), vec![(*c, lit(value.clone()))])
                .map(|_| ()),
        }
    };
    let mut outcomes: Vec<(UpdatePolicy, InterleavedOutcome)> = Vec::new();
    for policy in ALL_POLICIES {
        let db = Database::new();
        db.create_table(
            TableMeta::new("t", schema.clone(), sk_cols.clone()),
            TableOptions {
                block_rows: 8,
                policy,
                partitions: partitions.clone(),
                ..TableOptions::default()
            },
            rows.clone(),
        )
        .unwrap();
        let mut a = db.begin();
        let mut b = db.begin();
        let a_staged = a_ops.iter().all(|op| apply(&mut a, op).is_ok());
        let b_staged = b_ops.iter().all(|op| apply(&mut b, op).is_ok());
        let a_ok = if a_staged {
            a.commit().is_ok()
        } else {
            a.abort();
            false
        };
        let b_ok = if b_staged {
            b.commit().is_ok()
        } else {
            b.abort();
            false
        };
        let view = db.read_view();
        let image = run_to_rows(&mut view.scan_with("t", ScanSpec::all()).unwrap());
        outcomes.push((policy, InterleavedOutcome { a_ok, b_ok, image }));
    }
    let (_, first) = &outcomes[0];
    for (policy, o) in &outcomes[1..] {
        assert_eq!(
            o, first,
            "{policy:?} disagreed with {:?} on the interleaving outcome",
            outcomes[0].0
        );
    }
    first.clone()
}

// --- Concurrent differential harness ------------------------------------

/// Deterministic multi-threaded workload for [`run_concurrent_differential`]:
/// `writers` threads each execute a fixed-seed script of single-statement
/// transactions confined to their own sort-key partition, `scanners`
/// threads continuously assert snapshot invariants, and a background
/// [`MaintenanceScheduler`](crate::MaintenanceScheduler) with tiny byte
/// budgets flushes and checkpoints throughout. Partition-disjoint scripts
/// make the final image independent of thread interleaving, so the run is
/// an oracle despite real concurrency: every policy must converge to the
/// same image, which must equal the sequential replay of the scripts.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentSpec {
    /// Writer threads, each confined to its own sort-key partition.
    pub writers: usize,
    /// Reader threads asserting snapshot invariants throughout.
    pub scanners: usize,
    /// Single-statement transactions per writer.
    pub ops_per_writer: usize,
    /// Bulk-loaded rows per writer partition.
    pub base_rows_per_writer: usize,
    /// Seed of the deterministic per-writer scripts.
    pub seed: u64,
    /// Rows per stable block of the test table.
    pub block_rows: usize,
}

impl Default for ConcurrentSpec {
    fn default() -> Self {
        ConcurrentSpec {
            writers: 4,
            scanners: 2,
            ops_per_writer: 60,
            base_rows_per_writer: 32,
            seed: 0x5eed_cafe,
            block_rows: 16,
        }
    }
}

/// Width of each writer's private key partition.
const PARTITION_SPAN: i64 = 1_000_000;

/// One step of a writer script. Every row ever written satisfies
/// `v == k + 1` (column 1), which scanners assert on every visible row —
/// a torn merge or a misplaced positional update breaks it.
#[derive(Debug, Clone)]
enum WriterOp {
    Insert { key: i64, tag: i64 },
    Delete { key: i64 },
    Modify { key: i64, tag: i64 },
}

/// Minimal deterministic RNG (splitmix64) — the harness must not depend on
/// workload crates.
struct Splitmix(u64);

impl Splitmix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Generate writer `w`'s script plus its partition's final row state, by
/// simulating the script against a local model (pure in `spec.seed`).
fn writer_script(
    spec: &ConcurrentSpec,
    w: usize,
    base: &[Tuple],
) -> (Vec<WriterOp>, std::collections::BTreeMap<i64, Tuple>) {
    use std::collections::BTreeMap;
    let lo = w as i64 * PARTITION_SPAN;
    let mut model: BTreeMap<i64, Tuple> = base
        .iter()
        .filter(|r| r[0].as_int() >= lo && r[0].as_int() < lo + PARTITION_SPAN)
        .map(|r| (r[0].as_int(), r.clone()))
        .collect();
    let mut rng = Splitmix(spec.seed ^ (w as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let mut ops = Vec::with_capacity(spec.ops_per_writer);
    for step in 0..spec.ops_per_writer {
        let tag = (w * spec.ops_per_writer + step) as i64;
        let pick_existing = |rng: &mut Splitmix, model: &BTreeMap<i64, Tuple>| -> Option<i64> {
            if model.is_empty() {
                None
            } else {
                let i = rng.below(model.len() as u64) as usize;
                model.keys().nth(i).copied()
            }
        };
        let op = match rng.below(3) {
            0 => {
                // insert a fresh key in the partition
                let mut key = lo + rng.below(PARTITION_SPAN as u64) as i64;
                while model.contains_key(&key) {
                    key = lo + rng.below(PARTITION_SPAN as u64) as i64;
                }
                WriterOp::Insert { key, tag }
            }
            1 => match pick_existing(&mut rng, &model) {
                Some(key) => WriterOp::Delete { key },
                None => WriterOp::Insert { key: lo + tag, tag },
            },
            _ => match pick_existing(&mut rng, &model) {
                Some(key) => WriterOp::Modify { key, tag },
                None => WriterOp::Insert { key: lo + tag, tag },
            },
        };
        match &op {
            WriterOp::Insert { key, tag } => {
                model.insert(
                    *key,
                    vec![Value::Int(*key), Value::Int(*key + 1), Value::Int(*tag)],
                );
            }
            WriterOp::Delete { key } => {
                model.remove(key);
            }
            WriterOp::Modify { key, tag } => {
                model.get_mut(key).expect("picked existing")[2] = Value::Int(*tag);
            }
        }
        ops.push(op);
    }
    (ops, model)
}

/// Assert the invariants every consistent snapshot of the stress table
/// obeys, returning the scanned rows.
fn assert_snapshot_invariants(
    view: &crate::ReadView,
    table: &str,
    policy: UpdatePolicy,
    context: &str,
) -> Vec<Tuple> {
    let rows = run_to_rows(
        &mut view
            .scan_with(table, ScanSpec::cols(vec![0, 1, 2]))
            .unwrap(),
    );
    for w in rows.windows(2) {
        assert!(
            w[0][0].as_int() < w[1][0].as_int(),
            "{policy:?} {context}: sort order violated around {:?}",
            &w[0]
        );
    }
    for r in &rows {
        assert_eq!(
            r[1].as_int(),
            r[0].as_int() + 1,
            "{policy:?} {context}: torn row {r:?}"
        );
    }
    assert_eq!(
        view.visible_rows(table).unwrap(),
        rows.len() as u64,
        "{policy:?} {context}: delta_total drifted from the scan"
    );
    rows
}

/// Run the concurrent workload against one database per [`UpdatePolicy`]
/// — writers, scanners and the background maintenance scheduler all live
/// at once — and assert that every policy converges to the model image.
/// Returns the agreed final image.
pub fn run_concurrent_differential(spec: ConcurrentSpec) -> Vec<Tuple> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let schema = Schema::from_pairs(&[
        ("k", columnar::ValueType::Int),
        ("v", columnar::ValueType::Int),
        ("tag", columnar::ValueType::Int),
    ]);
    // base rows: a stripe inside every writer's partition
    let mut base: Vec<Tuple> = Vec::new();
    for w in 0..spec.writers {
        let lo = w as i64 * PARTITION_SPAN;
        for j in 0..spec.base_rows_per_writer as i64 {
            let key = lo + j * 37;
            base.push(vec![Value::Int(key), Value::Int(key + 1), Value::Int(0)]);
        }
    }
    // deterministic scripts + the sequentially-replayed expected image
    let mut scripts = Vec::with_capacity(spec.writers);
    let mut expected: Vec<Tuple> = Vec::new();
    for w in 0..spec.writers {
        let (ops, final_model) = writer_script(&spec, w, &base);
        scripts.push(ops);
        expected.extend(final_model.into_values());
    }
    expected.sort_by_key(|r| r[0].as_int());

    let mut images: Vec<(UpdatePolicy, Vec<Tuple>)> = Vec::new();
    for policy in ALL_POLICIES {
        let db = std::sync::Arc::new(Database::new());
        db.create_table(
            TableMeta::new("t", schema.clone(), vec![0]),
            TableOptions {
                block_rows: spec.block_rows,
                policy,
                // tiny budgets: maintenance fires constantly under load
                flush_threshold_bytes: 256,
                checkpoint_threshold_bytes: 1024,
                partitions: PartitionSpec::None,
                ..TableOptions::default()
            },
            base.clone(),
        )
        .unwrap();
        let scheduler = crate::MaintenanceScheduler::start(
            db.clone(),
            crate::MaintenanceConfig::with_tick(std::time::Duration::from_millis(1)),
        );
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let mut writer_handles = Vec::with_capacity(spec.writers);
            for (w, ops) in scripts.iter().enumerate() {
                let db = &db;
                let handle = s.spawn(move || {
                    for (step, op) in ops.iter().enumerate() {
                        // writers also drive maintenance directly at fixed
                        // strides (offset per writer): flushes and
                        // checkpoints are then *guaranteed* to overlap
                        // other writers' commits and the scanners,
                        // whatever the scheduler's timing
                        if step % 7 == w % 7 {
                            db.maybe_flush("t", 0).unwrap();
                        }
                        if step % 13 == w % 13 {
                            db.checkpoint("t")
                                .unwrap_or_else(|e| panic!("{policy:?}: checkpoint failed: {e}"));
                        }
                        let mut txn = db.begin();
                        match op {
                            WriterOp::Insert { key, tag } => {
                                txn.insert(
                                    "t",
                                    vec![Value::Int(*key), Value::Int(key + 1), Value::Int(*tag)],
                                )
                                .unwrap();
                            }
                            WriterOp::Delete { key } => {
                                let n = txn
                                    .delete_where("t", key_eq_pred(&[0], &[Value::Int(*key)]))
                                    .unwrap();
                                assert_eq!(n, 1, "{policy:?}: delete of {key} missed");
                            }
                            WriterOp::Modify { key, tag } => {
                                let n = txn
                                    .update_where(
                                        "t",
                                        key_eq_pred(&[0], &[Value::Int(*key)]),
                                        vec![(2, lit(*tag))],
                                    )
                                    .unwrap();
                                assert_eq!(n, 1, "{policy:?}: modify of {key} missed");
                            }
                        }
                        txn.commit()
                            .unwrap_or_else(|e| panic!("{policy:?}: commit failed: {e}"));
                    }
                });
                writer_handles.push(handle);
            }
            for _ in 0..spec.scanners {
                let db = &db;
                let done = &done;
                s.spawn(move || {
                    let mut passes = 0u32;
                    while !done.load(Ordering::Acquire) || passes < 3 {
                        let view = db.read_view();
                        let first = assert_snapshot_invariants(&view, "t", policy, "scan");
                        // the same view re-scanned mid-maintenance must be
                        // byte-identical: snapshots never move
                        let second = assert_snapshot_invariants(&view, "t", policy, "re-scan");
                        assert_eq!(
                            first, second,
                            "{policy:?}: open view drifted across concurrent maintenance"
                        );
                        // stable-only scans see some checkpointed prefix:
                        // ordered and un-torn, like any consistent cut
                        assert_snapshot_invariants(&db.clean_view(), "t", policy, "clean scan");
                        passes += 1;
                    }
                });
            }
            // release the scanners only once every writer is done — and
            // release them even when a writer panicked, or the scanners
            // would spin forever and the scope (hence the test) would
            // hang instead of failing with the writer's panic
            let mut writer_panic = None;
            for h in writer_handles {
                if let Err(p) = h.join() {
                    writer_panic.get_or_insert(p);
                }
            }
            done.store(true, Ordering::Release);
            if let Some(p) = writer_panic {
                std::panic::resume_unwind(p);
            }
        });
        scheduler
            .drain()
            .unwrap_or_else(|e| panic!("{policy:?}: drain failed: {e}"));
        let stats = scheduler.stats();
        assert_eq!(
            stats.errors,
            0,
            "{policy:?}: maintenance errors: {:?}",
            scheduler.last_error()
        );
        assert!(
            stats.checkpoints > 0,
            "{policy:?}: no checkpoint ran — the stress run exercised nothing"
        );
        scheduler.shutdown();
        let view = db.read_view();
        let image = assert_snapshot_invariants(&view, "t", policy, "final");
        assert_eq!(
            image, expected,
            "{policy:?}: concurrent run diverged from the sequential model"
        );
        images.push((policy, image));
    }
    let (_, first) = &images[0];
    for (policy, img) in &images[1..] {
        assert_eq!(
            img, first,
            "{policy:?} disagreed with {:?} after the concurrent run",
            images[0].0
        );
    }
    first.clone()
}
