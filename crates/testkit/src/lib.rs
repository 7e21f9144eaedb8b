//! Cross-backend differential test harness.
//!
//! Three independently implemented update structures sit behind
//! [`DeltaStore`](engine::DeltaStore); driven by identical DML they must
//! agree **bit-for-bit** — on scan images, row counts, commit/abort
//! decisions, and recovered state. [`DiffHarness`] turns that invariant
//! into an executable oracle: every workload step is applied through the
//! same transactional API to one database per [`UpdatePolicy`] *and* to
//! the executable specification [`NaiveImage`], then all four images are
//! compared. The workspace's differential, fuzz and lifecycle suites
//! under `tests/` drive their workloads through this crate, so any
//! behavioural divergence between PDT, VDT and the row store fails loudly
//! and with a readable diff. The crate is dev-only: nothing but a
//! `[dev-dependencies]` table may name it.
//!
//! Batched statements ([`DiffHarness::append`],
//! [`DiffHarness::delete_rids`], [`DiffHarness::update_col`]) and
//! row-at-a-time ones ([`DiffHarness::insert`], [`DiffHarness::delete`],
//! [`DiffHarness::modify`]) are held to the same model, so batch ≡ rows
//! follows through it.
//!
//! With [`DiffHarness::with_wal`] every database is durable — a WAL with
//! its checkpoint images beside it — and [`DiffHarness::crash_recover`]
//! models a crash: all databases are dropped, recreated from the
//! *original* bulk-load rows and recovered from their logs — recovery
//! state is part of the differential contract. The harness never moves
//! its recovery base: a checkpoint appends a marker at its pinned commit
//! sequence, replay skips every commit the marker covers, and everything
//! the checkpoint folded must come back from the image it published.
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
//! [`MaintenanceScheduler`] flushing and checkpointing with tiny budgets
//! — per-partition determinism makes the final image
//! interleaving-independent, so concurrency bugs surface as differential
//! divergence from the sequential model.

#![warn(missing_docs)]

use columnar::{Schema, TableMeta, Tuple, Value};
use engine::{
    Database, DbError, DbTxn, MaintainTarget, MaintenanceConfig, MaintenanceScheduler,
    PartitionSpec, ReadView, ScanSpec, TableOptions, UpdatePolicy, ALL_POLICIES,
};
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

/// One database per update policy plus the naive model, driven in lockstep.
pub struct DiffHarness {
    table: String,
    schema: Schema,
    sk_cols: Vec<usize>,
    block_rows: usize,
    /// The bulk-load rows every database is (re)built from — recovery
    /// restores checkpointed state from images and replays the WAL on top.
    base_rows: Vec<Tuple>,
    dbs: Vec<(UpdatePolicy, Database)>,
    model: NaiveImage,
    /// `Some(dir)`: databases are durable (one log per policy, its images
    /// beside it) and support [`Self::crash_recover`].
    wal_dir: Option<PathBuf>,
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
        Self::build(table, schema, sk_cols, rows, block_rows, None)
    }

    /// Durable harness: one [`Database::with_wal`] per policy under `dir`,
    /// its log and image directory removed on creation so every run
    /// starts clean.
    pub fn with_wal(
        dir: PathBuf,
        table: &str,
        schema: Schema,
        sk_cols: Vec<usize>,
        rows: Vec<Tuple>,
        block_rows: usize,
    ) -> Self {
        std::fs::create_dir_all(&dir).expect("harness wal dir");
        Self::clear_storage(&dir);
        Self::build(table, schema, sk_cols, rows, block_rows, Some(dir))
    }

    fn wal_path(dir: &std::path::Path, policy: UpdatePolicy) -> PathBuf {
        dir.join(format!("{policy:?}.wal"))
    }

    /// Remove every policy's log and the image directory beside it.
    fn clear_storage(dir: &std::path::Path) {
        for policy in ALL_POLICIES {
            let _ = std::fs::remove_file(Self::wal_path(dir, policy));
            let _ = std::fs::remove_dir_all(dir.join(format!("{policy:?}.wal.images")));
        }
    }

    fn build(
        table: &str,
        schema: Schema,
        sk_cols: Vec<usize>,
        rows: Vec<Tuple>,
        block_rows: usize,
        wal_dir: Option<PathBuf>,
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
            Self::clear_storage(dir);
        }
        self.dbs = self.make_dbs();
        let resolved = self.dbs[0]
            .1
            .table(&self.table)
            .expect("harness table exists");
        self.partitions = PartitionSpec::SplitPoints(resolved.splits().to_vec());
        self
    }

    /// Partition count of the harness databases.
    pub fn partition_count(&self) -> usize {
        let t = self.dbs[0]
            .1
            .table(&self.table)
            .expect("harness table exists");
        t.partitions().len()
    }

    fn make_dbs(&self) -> Vec<(UpdatePolicy, Database)> {
        ALL_POLICIES
            .iter()
            .map(|&policy| {
                let db = match &self.wal_dir {
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
                    &self.base_rows,
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

    /// Insert `row` into the model at its sort-key position.
    fn model_insert(&mut self, row: Tuple) {
        let key = self.key_of(&row);
        let pos = self
            .model
            .rows()
            .iter()
            .position(|r| self.key_of(r) > key)
            .unwrap_or(self.model.len());
        self.model.insert(pos, row);
    }

    fn merged_image(db: &Database, table: &str) -> Vec<Tuple> {
        let view = db.read_view();
        run_to_rows(&mut view.scan_with(table, ScanSpec::all()).unwrap())
    }

    /// Assert every database's merged image, visible row count and policy
    /// tag agree with the model.
    pub fn assert_agree(&self, context: &str) {
        for (policy, db) in &self.dbs {
            let t = db.table(&self.table).unwrap();
            assert_eq!(t.options().policy, *policy, "{context}: policy tag");
            let image = Self::merged_image(db, &self.table);
            assert!(
                image == self.model.rows(),
                "{context}: {policy:?} image diverged from the model\n image: {image:?}\n model: {:?}",
                self.model.rows()
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
            assert!(
                clean == self.model.rows(),
                "{context}: {policy:?} clean image diverged\n clean: {clean:?}\n model: {:?}",
                self.model.rows()
            );
        }
    }

    /// INSERT `tuple` through one committed transaction per database.
    /// Returns `false` when the model predicts a duplicate sort key — in
    /// which case every database must reject it identically.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        let key = self.key_of(&tuple);
        let dup = (self.model.rows().iter()).any(|r| self.key_of(r) == key);
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
            self.model_insert(tuple);
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
            || (self.model.rows().iter()).any(|r| keys.contains(&self.key_of(r)));
        let types = self.schema.types();
        for (policy, db) in &self.dbs {
            let mut txn = db.begin();
            let res = txn.append(&self.table, Batch::from_rows(&types, &rows));
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
                self.model_insert(row);
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

    /// UPDATE column `col` of the model's visible rows at `rids` through
    /// one positional `update_col` statement per database. A sort-key
    /// column is the §2.1 delete + insert rewrite: the model moves the
    /// rows, and when a new key repeats within the statement or hits a
    /// row the statement does not rewrite, every database must reject it
    /// identically. Returns whether the statement committed.
    pub fn update_col(&mut self, rids: &[u64], col: usize, values: &[Value]) -> bool {
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
        let rewrites_key = self.sk_cols.contains(&col);
        let post: Vec<Tuple> = pairs
            .iter()
            .map(|(r, v)| {
                let mut row = self.model.rows()[*r as usize].clone();
                row[col] = v.clone();
                row
            })
            .collect();
        let mut new_keys: Vec<Vec<Value>> = post.iter().map(|r| self.key_of(r)).collect();
        new_keys.sort();
        let collides = rewrites_key
            && (new_keys.windows(2).any(|w| w[0] == w[1])
                || self.model.rows().iter().enumerate().any(|(i, r)| {
                    rids.binary_search(&(i as u64)).is_err()
                        && new_keys.binary_search(&self.key_of(r)).is_ok()
                }));
        for (policy, db) in &self.dbs {
            let mut txn = db.begin();
            let res = txn.update_col(&self.table, &rids, col, vals.clone());
            if collides {
                assert!(
                    matches!(res, Err(DbError::DuplicateKey { .. })),
                    "{policy:?}: key rewrite to {new_keys:?} must collide, got {res:?}"
                );
                txn.abort();
            } else {
                let n = res.unwrap_or_else(|e| panic!("{policy:?}: update_col failed: {e}"));
                assert_eq!(n, rids.len(), "{policy:?}");
                txn.commit()
                    .unwrap_or_else(|e| panic!("{policy:?}: update_col commit failed: {e}"));
            }
        }
        if !collides {
            if rewrites_key {
                for &r in rids.iter().rev() {
                    self.model.delete(r as usize);
                }
                for row in post {
                    self.model_insert(row);
                }
            } else {
                for (r, v) in pairs {
                    self.model.modify(r as usize, col, v);
                }
            }
        }
        self.assert_agree("after update_col");
        !collides
    }

    /// UPDATE non-key columns of the model's visible row `rid`: one
    /// positional `update_col` statement per `(column, value)`, in order,
    /// all in one committed transaction per database.
    pub fn update_cols(&mut self, rid: u64, sets: &[(usize, Value)]) {
        for (policy, db) in &self.dbs {
            let mut txn = db.begin();
            for (col, value) in sets {
                assert!(
                    !self.sk_cols.contains(col),
                    "column {col} is a sort-key column"
                );
                let mut vals = columnar::ColumnVec::new(self.schema.vtype(*col));
                vals.push(value);
                txn.update_col(&self.table, &[rid], *col, vals)
                    .unwrap_or_else(|e| panic!("{policy:?}: update_col failed: {e}"));
            }
            txn.commit()
                .unwrap_or_else(|e| panic!("{policy:?}: update_cols commit failed: {e}"));
        }
        for (col, value) in sets {
            self.model.modify(rid as usize, *col, value.clone());
        }
        self.assert_agree("after update_cols");
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
            && (self.model.rows().iter()).any(|r| self.key_of(r) == new_key);
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
                self.model_insert(post);
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
    /// the merged and the clean views. On durable databases each
    /// checkpoint publishes its image and appends a marker at its pinned
    /// commit sequence; a later [`Self::crash_recover`] loads that image
    /// and skips every commit the marker covers.
    pub fn checkpoint(&mut self) {
        for (policy, db) in &self.dbs {
            db.checkpoint(&self.table)
                .unwrap_or_else(|e| panic!("{policy:?}: checkpoint failed: {e}"));
        }
        self.assert_agree("after checkpoint");
        self.assert_clean_agree("after checkpoint");
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
            let t = db.table(&self.table).expect("harness table");
            let Some(part) = t.partitions().get(p).copied() else {
                continue;
            };
            let nb = part.stable().num_blocks();
            let (b0, b1) = (b0.min(nb), b1.min(nb));
            if b0 > b1 || (b0 == b1 && b1 < nb) {
                continue;
            }
            part.maintain(MaintainTarget::Blocks(b0, b1))
                .unwrap_or_else(|e| panic!("{policy:?}: compaction step failed: {e}"));
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
    /// [`Self::with_wal`].
    pub fn crash_before_marker(&mut self, range: Option<(usize, usize, usize)>) {
        for (policy, db) in &self.dbs {
            db.crash_after_image_publish(true);
            let res = match range {
                None => db.checkpoint(&self.table),
                Some((p, b0, b1)) => {
                    let t = db.table(&self.table).expect("harness table");
                    let part = t.partitions()[p];
                    let nb = part.stable().num_blocks();
                    part.maintain(MaintainTarget::Blocks(b0.min(nb), b1.min(nb)))
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

    /// Crash: drop every database, recreate it from the bulk-load rows and
    /// recover it from its images and WAL, then verify the recovered state
    /// against the model. Panics unless the harness was built with
    /// [`Self::with_wal`].
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

/// One statement of a scripted transaction for [`run_interleaved`].
#[derive(Debug, Clone)]
pub enum TxnOp {
    /// Insert a new tuple.
    Insert(Tuple),
    /// Append a batch of new tuples in one statement.
    Append(Vec<Tuple>),
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
/// reaches the same per-transaction decision and the same final image, and
/// that every failed commit is a [`DbError::Conflict`]. Returns the common
/// outcome.
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
    let apply = |txn: &mut DbTxn<'_>, op: &TxnOp| -> Result<(), DbError> {
        match op {
            TxnOp::Insert(t) => txn.insert("t", t.clone()),
            TxnOp::Append(rows) => txn
                .append("t", Batch::from_rows(&schema.types(), rows))
                .map(|_| ()),
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
            &rows,
        )
        .unwrap();
        // a commit fails only by a write-write conflict, in the one error
        // form every policy returns
        let commit = |txn: DbTxn<'_>| match txn.commit() {
            Err(e) if !matches!(e, DbError::Conflict { .. }) => {
                panic!("{policy:?}: a failed commit is not a conflict: {e}")
            }
            res => res.is_ok(),
        };
        let mut a = db.begin();
        let mut b = db.begin();
        let a_staged = a_ops.iter().all(|op| apply(&mut a, op).is_ok());
        let b_staged = b_ops.iter().all(|op| apply(&mut b, op).is_ok());
        let a_ok = if a_staged {
            commit(a)
        } else {
            a.abort();
            false
        };
        let b_ok = if b_staged {
            commit(b)
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
        assert!(
            o == first,
            "{policy:?} disagreed with {:?} on the interleaving outcome: {o:?} vs {first:?}",
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
/// [`MaintenanceScheduler`] with tiny byte budgets flushes and
/// checkpoints throughout. Partition-disjoint scripts
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
    view: &ReadView,
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
            &base,
        )
        .unwrap();
        let scheduler = MaintenanceScheduler::start(
            db.clone(),
            MaintenanceConfig::with_tick(std::time::Duration::from_millis(1)),
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
        let m = db.metrics();
        assert_eq!(
            m.value("maintenance.errors"),
            Some(0),
            "{policy:?}: maintenance errors: {:?}",
            scheduler.last_error()
        );
        assert!(
            m.value("maintenance.checkpoints") > Some(0),
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
