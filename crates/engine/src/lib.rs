//! # Mini column-store DBMS
//!
//! Ties the substrates together into the system the paper evaluates:
//! ordered compressed columnar tables ([`columnar`]), differential updates
//! buffered in a per-table update structure behind the [`DeltaStore`]
//! trait — positional PDTs ([`pdt`]) under snapshot-isolation transactions
//! ([`txn`]), the value-based VDT baseline ([`vdt`]), or the classic
//! copy-on-write row-store baseline ([`rowstore`]) — and scans/queries
//! through the block-oriented executor ([`exec`]).
//!
//! Every table picks its update structure at creation time
//! ([`TableOptions::policy`]); DML, commit, WAL durability, flushing and
//! checkpointing then flow through one API regardless of the structure:
//!
//! ```text
//! let db = Database::new();
//! db.create_table(meta, TableOptions::default().with_policy(UpdatePolicy::Vdt), rows)?;
//! let mut txn = db.begin();           // same transactions for PDT and VDT
//! txn.append("t", batch)?;            // batch-first writes: one scan,
//! txn.delete_rids("t", &rids)?;       // one staged op, one WAL entry
//! txn.update_col("t", &rids, 2, new_values)?;   //   per statement
//! txn.commit()?;
//! let view = db.read_view();          // scans merge the table's own deltas
//! db.checkpoint("t")?;                // same checkpoint for either backend
//! let t = db.table("t")?;             // one lookup: options, schema, splits,
//! t.partitions()[0].maintain(MaintainTarget::Planned)?;  // and partitions
//! ```
//!
//! Statements name tables; maintenance addresses the partition that owns
//! the state it changes ([`Table`], [`Partition`]).
//!
//! The paper's Figure-19 "no-updates" bars come from [`Database::clean_view`],
//! which scans the stable images only.
//!
//! DML follows the paper's flows: inserts locate their RID with a ranged
//! scan on the sort key ("SELECT rid WHERE SK > sk ORDER BY rid LIMIT 1"),
//! resolve SIDs against ghosts via `SkRidToSid`, and record updates in the
//! transaction's private staging area; deletes and updates scan for victims
//! and fold positionally. Sort-key-modifying updates are rewritten as
//! delete + insert (§2.1).

#![warn(missing_docs)]

pub mod batch;
pub mod compaction;
pub mod delta;
pub mod dml;
pub mod maintenance;
pub mod partition;
pub mod rowstore;
mod table;
pub mod testkit;

pub use batch::{DmlBatch, PreImageOf};
pub use compaction::{
    BlockHeat, CompactionConfig, CompactionReport, CompactionStep, PartitionHeat,
};
pub use delta::{
    CheckpointPin, DeltaSnapshot, DeltaStore, DeltaTxn, KeyDelta, KeyStore, PdtStore, UpdatePolicy,
    ALL_POLICIES,
};
pub use dml::{Appender, DbTxn};
pub use maintenance::{MaintenanceConfig, MaintenanceScheduler};
pub use partition::PartitionSpec;
pub use table::{MaintainTarget, Partition, Table};
pub use txn::wal::WalStats;

use ::rowstore::RowBuffer;
use columnar::{
    ColumnarError, ImageStore, IoStats, IoTracker, Schema, StableTable, TableMeta, Tuple, Value,
};
use exec::{DeltaLayers, Operator, ScanBounds, ScanClock, ScanCounts, ScanSegment, TableScan};
use maintenance::MaintMetrics;
use parking_lot::RwLock;
use partition::{PartitionEntry, TableEntry};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use txn::{TxnError, TxnManager};
use vdt::Vdt;

/// Engine-level errors.
#[derive(Debug)]
pub enum DbError {
    /// No table with that name.
    UnknownTable(String),
    /// `create_table` named a table that already exists.
    TableExists(String),
    /// No such column in the table.
    UnknownColumn {
        /// The table scanned.
        table: String,
        /// The unresolved column reference.
        column: String,
    },
    /// An insert collided with an existing sort key.
    DuplicateKey {
        /// The table written.
        table: String,
        /// The duplicated sort-key values.
        key: Vec<Value>,
    },
    /// Write-write conflict detected by a value-addressed delta store.
    Conflict {
        /// The table written.
        table: String,
        /// What conflicted.
        reason: String,
    },
    /// A write batch does not fit the table: wrong arity, a column of the
    /// wrong type, mismatched rid/value counts, or an out-of-range rid.
    /// Raised at the API boundary, before anything is staged — shape bugs
    /// never reach (let alone panic inside) the delta structures.
    BatchShape {
        /// The table written.
        table: String,
        /// What about the batch does not fit.
        detail: String,
    },
    /// An invalid [`PartitionSpec`] (unsorted/duplicate split points, zero
    /// partitions), or a WAL/caller referenced a partition the table does
    /// not have.
    Partition {
        /// The table addressed.
        table: String,
        /// What about the partitioning is invalid.
        detail: String,
    },
    /// A storage-layer error surfaced through the engine.
    Storage(ColumnarError),
    /// A transaction-layer error surfaced through the engine.
    Txn(TxnError),
    /// An I/O error from the WAL or image store.
    Io(std::io::Error),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownTable(t) => write!(f, "unknown table {t}"),
            DbError::TableExists(t) => write!(f, "table {t} already exists"),
            DbError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column} in table {table}")
            }
            DbError::DuplicateKey { table, key } => {
                write!(f, "duplicate sort key {key:?} in table {table}")
            }
            DbError::Conflict { table, reason } => {
                write!(f, "write-write conflict on table {table}: {reason}")
            }
            DbError::BatchShape { table, detail } => {
                write!(f, "batch does not fit table {table}: {detail}")
            }
            DbError::Partition { table, detail } => {
                write!(f, "bad partitioning of table {table}: {detail}")
            }
            DbError::Storage(e) => write!(f, "storage error: {e}"),
            DbError::Txn(e) => write!(f, "transaction error: {e}"),
            DbError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Storage(e) => Some(e),
            DbError::Txn(e) => Some(e),
            DbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ColumnarError> for DbError {
    fn from(e: ColumnarError) -> Self {
        DbError::Storage(e)
    }
}

impl From<TxnError> for DbError {
    fn from(e: TxnError) -> Self {
        DbError::Txn(e)
    }
}

/// Physical layout plus update-handling policy of a table.
///
/// Extends the storage options of [`columnar::TableOptions`] with the
/// engine-level choice of differential structure, replacing the old
/// per-scan `ScanMode` plumbing: the policy is a property of the *table*,
/// fixed at creation, and every scan of the table merges the structure the
/// table is maintained by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableOptions {
    /// Rows per block (the scan/merge granularity). Default 4096.
    pub block_rows: usize,
    /// Which update structure maintains the table. Default PDT.
    pub policy: UpdatePolicy,
    /// Write-layer byte budget **per partition**: the background scheduler
    /// flushes a partition's write-optimised delta layer into its
    /// read-optimised one once it exceeds this (the paper's Propagate
    /// policy — keep the Write-PDT CPU-cache-sized). Default 1 MiB.
    pub flush_threshold_bytes: usize,
    /// Total delta byte budget **per partition**: the background scheduler
    /// checkpoints a partition into a fresh stable slice once its
    /// committed delta layers exceed this. Default 64 MiB.
    pub checkpoint_threshold_bytes: usize,
    /// Horizontal range partitioning ([`PartitionSpec::None`] — the
    /// default — keeps one partition and is behaviorally identical to the
    /// pre-partitioning engine).
    pub partitions: PartitionSpec,
    /// Heat-driven incremental compaction: fold delta into *sub-partition*
    /// block ranges chosen by the [`compaction`] planner, instead of (not
    /// as well as — full checkpoints still run over budget) rewriting
    /// whole partitions. Disabled by default.
    pub compaction: CompactionConfig,
    /// Slow-query log threshold: commits touching this table that take
    /// longer emit one `slow.commit` trace event (with partition count,
    /// WAL entries, and the durable-wait share) when tracing is enabled.
    /// `None` (the default) disables the check.
    pub slow_commit_threshold: Option<std::time::Duration>,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            block_rows: 4096,
            policy: UpdatePolicy::Pdt,
            flush_threshold_bytes: 1 << 20,
            checkpoint_threshold_bytes: 64 << 20,
            partitions: PartitionSpec::None,
            compaction: CompactionConfig::default(),
            slow_commit_threshold: None,
        }
    }
}

impl TableOptions {
    /// Set the update structure maintaining the table.
    pub fn with_policy(mut self, policy: UpdatePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the rows-per-block scan/merge granularity.
    pub fn with_block_rows(mut self, block_rows: usize) -> Self {
        self.block_rows = block_rows;
        self
    }

    /// Set the background-flush byte budget of the write-optimised layer.
    pub fn with_flush_threshold(mut self, bytes: usize) -> Self {
        self.flush_threshold_bytes = bytes;
        self
    }

    /// Set the background-checkpoint byte budget of the whole delta.
    pub fn with_checkpoint_threshold(mut self, bytes: usize) -> Self {
        self.checkpoint_threshold_bytes = bytes;
        self
    }

    /// Range-partition the table ([`PartitionSpec::Count`] for equi-depth
    /// splits over the bulk load, [`PartitionSpec::SplitPoints`] for
    /// explicit ones).
    pub fn with_partitions(mut self, partitions: PartitionSpec) -> Self {
        self.partitions = partitions;
        self
    }

    /// Configure heat-driven incremental compaction (see
    /// [`CompactionConfig`]).
    pub fn with_compaction(mut self, compaction: CompactionConfig) -> Self {
        self.compaction = compaction;
        self
    }

    /// Set the slow-commit trace threshold (see
    /// [`TableOptions::slow_commit_threshold`]).
    pub fn with_slow_commit_threshold(mut self, threshold: std::time::Duration) -> Self {
        self.slow_commit_threshold = Some(threshold);
        self
    }

    /// The storage-level subset (engine tables are always stored with
    /// lightweight compression).
    pub fn storage(&self) -> columnar::TableOptions {
        columnar::TableOptions {
            block_rows: self.block_rows,
            compressed: true,
        }
    }
}

/// The database: range-partitioned tables, each partition paired with its
/// own stable slice and update structure, plus the transaction manager
/// that sequences all commits.
pub struct Database {
    pub(crate) txn_mgr: Arc<TxnManager>,
    /// Written only by `create_table`: everything else a table owns is
    /// changed in place, inside its entry.
    pub(crate) tables: RwLock<HashMap<String, Arc<TableEntry>>>,
    /// Persisted compressed checkpoint images (`None`: checkpoints fold in
    /// memory only and recovery replays the full WAL, the pre-image
    /// behavior).
    images: Option<Arc<ImageStore>>,
    /// Test seam: make the next checkpoint fail *after* its image publish
    /// (manifest swapped) but *before* its WAL marker — the crash window
    /// the recovery protocol must tolerate.
    crash_after_publish: std::sync::atomic::AtomicBool,
    io: IoTracker,
    clock: ScanClock,
    /// The one live metrics store of this database: every series is
    /// recorded into it, once, where its event happens.
    registry: Arc<obs::Registry>,
    /// Rids and keys positional DML resolved (`db.dml.rids_resolved`) and
    /// the stable blocks it decoded to do so (`db.dml.blocks_decoded`) —
    /// recorded once per resolution, where it happens ([`dml`]).
    pub(crate) dml_rids_resolved: Arc<obs::metrics::Counter>,
    pub(crate) dml_blocks_decoded: Arc<obs::metrics::Counter>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database sequencing its commits through `txn_mgr`.
    fn over(txn_mgr: TxnManager) -> Self {
        let registry = Arc::new(obs::Registry::new());
        Database {
            txn_mgr: Arc::new(txn_mgr),
            tables: RwLock::new(HashMap::new()),
            images: None,
            crash_after_publish: std::sync::atomic::AtomicBool::new(false),
            io: IoTracker::new(),
            clock: ScanClock::new(),
            dml_rids_resolved: registry.counter("db.dml.rids_resolved", &[]),
            dml_blocks_decoded: registry.counter("db.dml.blocks_decoded", &[]),
            registry,
        }
    }

    /// In-memory database without a WAL.
    pub fn new() -> Self {
        Self::over(TxnManager::new())
    }

    /// Database whose commits append to a WAL at `path`.
    pub fn with_wal(path: &Path) -> Result<Self, DbError> {
        Ok(Self::over(TxnManager::with_wal(path).map_err(DbError::Io)?))
    }

    /// Database with full durable storage: commits append to the WAL at
    /// `wal`, and every checkpoint additionally persists its fresh stable
    /// slice as a compressed image under `image_dir` (created if needed).
    /// [`Database::recover_from`] then rebuilds checkpointed partitions
    /// from their images instead of losing the folded history.
    pub fn with_storage(wal: &Path, image_dir: &Path) -> Result<Self, DbError> {
        let mut db = Self::with_wal(wal)?;
        db.images = Some(Arc::new(ImageStore::open(image_dir)?));
        Ok(db)
    }

    /// Test seam: arm (or disarm) a simulated crash in the next checkpoint,
    /// between its image publish — manifest already swapped — and its WAL
    /// marker append. The checkpoint returns an I/O error and rolls its pin
    /// back; dropping the database afterwards models the process dying
    /// inside the window.
    pub fn crash_after_image_publish(&self, arm: bool) {
        self.crash_after_publish
            .store(arm, std::sync::atomic::Ordering::SeqCst);
    }

    /// Bulk-load a table (rows need not be pre-sorted). The update policy
    /// in `opts` fixes which differential structure maintains the table;
    /// its [`PartitionSpec`] fixes how the table is range-partitioned —
    /// each partition gets its own stable slice and its own instance of
    /// the update structure. A name already in use is refused with
    /// [`DbError::TableExists`]: the live table, its transactions and its
    /// log stay as they are.
    pub fn create_table(
        &self,
        meta: TableMeta,
        opts: TableOptions,
        rows: Vec<Tuple>,
    ) -> Result<(), DbError> {
        let policy = opts.policy;
        let store = |name, schema, sk| -> Arc<dyn DeltaStore> {
            match policy {
                UpdatePolicy::Pdt => {
                    Arc::new(PdtStore::new(self.txn_mgr.clone(), name, schema, sk))
                }
                UpdatePolicy::Vdt => Arc::new(KeyStore::<Vdt>::new(name, schema, sk)),
                UpdatePolicy::RowStore => Arc::new(KeyStore::<RowBuffer>::new(name, schema, sk)),
            }
        };
        self.create_table_with(meta, opts, rows, store)
    }

    /// [`Database::create_table`] with each partition's update structure
    /// built by `store(table, schema, sort-key columns)` — the seam a test
    /// uses to keep a typed handle on the store a partition runs on.
    pub(crate) fn create_table_with(
        &self,
        meta: TableMeta,
        opts: TableOptions,
        rows: Vec<Tuple>,
        store: impl Fn(String, Schema, Vec<usize>) -> Arc<dyn DeltaStore>,
    ) -> Result<(), DbError> {
        let name = meta.name.clone();
        // the name reaches storage verbatim: it is a component of image
        // file names and a field of the tab-separated, line-oriented MANIFEST
        let unstorable = |c: char| matches!(c, '/' | '\\' | '\0' | '\n' | '\r' | '\t');
        if name.is_empty() || name.starts_with('.') || name.contains(unstorable) {
            return Err(DbError::Partition {
                table: name,
                detail: "table names must be non-empty, must not start with '.' and must not \
                         contain a path separator, NUL, a tab or a line break"
                    .into(),
            });
        }
        if self.tables.read().contains_key(&name) {
            return Err(DbError::TableExists(name));
        }
        let schema = meta.schema.clone();
        let sk = meta.sort_key.cols().to_vec();
        let sk_types: Vec<columnar::ValueType> = sk.iter().map(|&c| schema.vtype(c)).collect();
        let splits = partition::derive_splits(&name, &opts.partitions, &rows, &sk, &sk_types)?;
        let groups = partition::split_rows(rows, &splits, &sk);
        let mut parts = Vec::with_capacity(groups.len());
        for (p, part_rows) in groups.into_iter().enumerate() {
            let stable = StableTable::bulk_load_unsorted(meta.clone(), opts.storage(), part_rows)?;
            let metrics = MaintMetrics::new(&self.registry, &name, p);
            let delta = store(name.clone(), schema.clone(), sk.clone());
            parts.push(PartitionEntry::new(stable, delta, &self.io, metrics));
        }
        // a concurrent create of the same name may have won meanwhile
        match self.tables.write().entry(name) {
            Entry::Occupied(taken) => Err(DbError::TableExists(taken.key().clone())),
            Entry::Vacant(slot) => {
                let name = slot.key().clone();
                slot.insert(Arc::new(TableEntry {
                    name,
                    schema,
                    parts,
                    splits,
                    opts,
                }));
                Ok(())
            }
        }
    }

    /// Shared I/O counters (per-database).
    pub fn io(&self) -> &IoTracker {
        &self.io
    }

    /// Shared scan-time clock.
    pub fn clock(&self) -> &ScanClock {
        &self.clock
    }

    /// The database's one live metrics registry. A layer above the
    /// engine (the server's sessions, the maintenance scheduler) resolves
    /// its handles here once and records into them;
    /// [`Database::metrics`] freezes it.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// Resolve a table by name, once: the handle reads its options, schema
    /// and split points and reaches its [`Partition`]s without another
    /// lookup.
    pub fn table(&self, name: &str) -> Result<Table<'_>, DbError> {
        let entry = self.tables.read().get(name).cloned();
        entry
            .map(|e| Table::new(self, e))
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Every table, sorted by name (the maintenance sweep order, sorted
    /// for determinism).
    pub(crate) fn tables(&self) -> Vec<Table<'_>> {
        let mut entries: Vec<Arc<TableEntry>> = self.tables.read().values().cloned().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries.into_iter().map(|e| Table::new(self, e)).collect()
    }

    /// Replay the WAL at `path` into the tables' update structures (after
    /// `create_table` with the *same split points*). When this database
    /// has an image store, each partition whose covering checkpoint marker
    /// references a persisted image is first rebuilt from that image — the
    /// folded history is *not* replayed (the marker's commits are skipped)
    /// and *not* lost; without one, markers still skip their covered
    /// commits (the pre-image behavior, which forfeits folded history).
    /// Returns the recovered commit sequence.
    pub fn recover_from(&self, path: &Path) -> Result<u64, DbError> {
        let _commit = self.txn_mgr.commit_guard();
        let all = txn::wal::Wal::read_all(path).map_err(DbError::Io)?;
        let markers = txn::wal::checkpoint_markers(&all);
        if let Some(images) = &self.images {
            let tables = self.tables.read();
            for (name, parts) in &markers {
                let Some(entry) = tables.get(name) else {
                    continue;
                };
                for (&p, marker) in parts {
                    let Some(image_seq) = marker.image_seq else {
                        continue;
                    };
                    let Some(pe) = entry.parts.get(p as usize) else {
                        return Err(DbError::Partition {
                            table: name.clone(),
                            detail: format!(
                                "checkpoint marker references partition {p}, table has {}",
                                entry.parts.len()
                            ),
                        });
                    };
                    if let Some((stable, prov)) = images.load(name, p, image_seq, &self.io)? {
                        // the partition's slot, swapped under the commit
                        // guard as a maintenance step swaps it
                        pe.swap_stable(stable, Some(prov));
                        obs::event!(
                            obs::TraceKind::RecoveryImageAdopt,
                            table: obs::trace::intern(name),
                            part: p,
                            seq: image_seq,
                            a: marker.residual.len() as u64,
                        );
                        // The image holds only the marker's folded window;
                        // the covered commits' remainder rides in the marker
                        // itself, rebased onto this stable — replay it
                        // before the surviving commits.
                        if !marker.residual.is_empty() {
                            pe.delta.replay(&marker.residual)?;
                        }
                    }
                }
            }
        }
        let records = txn::wal::effective_commits(all, &markers);
        let tables = self.tables.read();
        let mut last = 0;
        // Per-(table, partition) replay tallies: (entries, commits, last
        // sequence), aggregated into one trace event each.
        let mut replayed: HashMap<(String, u32), (u64, u64, u64)> = HashMap::new();
        for rec in records {
            last = rec.seq();
            if let txn::wal::WalRecord::Commit {
                tables: touched, ..
            } = rec
            {
                for (table, part, entries) in touched {
                    let e = tables
                        .get(&table)
                        .ok_or_else(|| DbError::UnknownTable(table.clone()))?;
                    let pe = e
                        .parts
                        .get(part as usize)
                        .ok_or_else(|| DbError::Partition {
                            table: table.clone(),
                            detail: format!(
                                "WAL references partition {part}, table has {}",
                                e.parts.len()
                            ),
                        })?;
                    pe.delta.replay(&entries)?;
                    if obs::trace::enabled() {
                        let t = replayed.entry((table.clone(), part)).or_default();
                        t.0 += entries.len() as u64;
                        t.1 += 1;
                        t.2 = last;
                    }
                }
            }
        }
        for ((table, part), (entries, commits, seq)) in replayed {
            obs::event!(
                obs::TraceKind::RecoveryWalReplay,
                table: obs::trace::intern(&table),
                part: part,
                seq: seq,
                a: entries,
                b: commits,
            );
        }
        self.txn_mgr.finish_recovery(last);
        Ok(last)
    }

    /// Cumulative WAL append statistics — how many commit/checkpoint
    /// records were logged and how many physical append windows (one
    /// write+flush each) carried them. Group commit shows up as
    /// `commits > appends`. `None` without a WAL.
    pub fn wal_stats(&self) -> Option<txn::wal::WalStats> {
        self.txn_mgr.wal_stats()
    }

    /// One coherent snapshot of every metric: the [`Database::registry`]
    /// frozen, completed with what is read at snapshot time from state
    /// the registry does not own — block I/O, the merge-scan clock, the
    /// transaction sequence, WAL totals (when a WAL is attached), the
    /// trace layer's dropped records and per-table delta gauges.
    /// Exposition-ready via [`obs::MetricsSnapshot::to_text`] /
    /// [`obs::MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        use obs::metrics::MetricValue::{Counter, Gauge};
        let mut m = self.registry.snapshot();
        let io = self.io.stats();
        m.insert("db.io.blocks_read", &[], Counter(io.blocks_read));
        m.insert("db.io.bytes_read", &[], Counter(io.bytes_read));
        m.insert("db.scan.merge_ns", &[], Counter(self.clock.nanos()));
        m.insert("db.txn.seq", &[], Gauge(self.txn_mgr.seq()));
        m.insert("obs.trace.dropped", &[], Counter(obs::trace::dropped()));
        if let Some(w) = self.wal_stats() {
            m.insert("db.wal.commits", &[], Counter(w.commits));
            m.insert("db.wal.checkpoints", &[], Counter(w.checkpoints));
            m.insert("db.wal.appends", &[], Counter(w.appends));
            let pending = self.txn_mgr.wal_pending_records();
            m.insert("db.wal.pending_records", &[], Gauge(pending));
        }
        for (name, e) in self.tables.read().iter() {
            let labels: &[(&str, &str)] = &[("table", name.as_str())];
            let sum =
                |f: fn(&dyn DeltaStore) -> usize| e.parts.iter().map(|p| f(&*p.delta) as u64).sum();
            m.insert("db.table.partitions", labels, Gauge(e.parts.len() as u64));
            m.insert(
                "db.table.delta_bytes",
                labels,
                Gauge(sum(|d| d.delta_bytes())),
            );
            m.insert(
                "db.table.write_bytes",
                labels,
                Gauge(sum(|d| d.write_bytes())),
            );
        }
        m
    }

    /// Test seam: suppress (or re-enable) group-commit flush leadership so
    /// concurrently arriving commit records deterministically pile into
    /// one append window. See `txn::wal::GroupWal::hold_flushes`.
    pub fn wal_hold_flushes(&self, hold: bool) {
        self.txn_mgr.wal_hold_flushes(hold);
    }

    /// Commit/checkpoint records enqueued but not yet durable (0 without
    /// a WAL).
    pub fn wal_pending_records(&self) -> u64 {
        self.txn_mgr.wal_pending_records()
    }

    /// Open a consistent read-only view for query execution; scans merge
    /// each table's committed deltas.
    pub fn read_view(&self) -> ReadView {
        self.view_inner(true)
    }

    /// A view over the stable images only — the paper's "no-updates" runs
    /// (and clean verification scans after a checkpoint).
    pub fn clean_view(&self) -> ReadView {
        self.view_inner(false)
    }

    fn view_inner(&self, with_deltas: bool) -> ReadView {
        // the commit guard spans the per-table snapshot captures, so the
        // view is one consistent cut across tables and delta structures
        let _commit = self.txn_mgr.commit_guard();
        let tables = self.tables.read();
        let views = tables
            .iter()
            .map(|(name, e)| {
                (
                    name.clone(),
                    TableView {
                        parts: e
                            .parts
                            .iter()
                            .map(|p| PartView {
                                stable: p.stable(),
                                delta: with_deltas.then(|| p.delta.snapshot()),
                                heat_io: p.heat_io.clone(),
                            })
                            .collect(),
                    },
                )
            })
            .collect();
        ReadView {
            tables: views,
            io: self.io.clone(),
            clock: self.clock.clone(),
        }
    }

    /// Begin a read-write transaction (works on every table, whatever its
    /// update policy or partitioning).
    pub fn begin(&self) -> DbTxn<'_> {
        let _commit = self.txn_mgr.commit_guard();
        let (id, start_seq) = self.txn_mgr.start_txn();
        let tables = self.tables.read();
        let snaps = tables
            .iter()
            .map(|(name, e)| (name.clone(), dml::TxnTable::new(e.clone())))
            .collect();
        DbTxn::new(self, id, start_seq, snaps)
    }

    /// Test seam: [`Database::checkpoint`] with an observer invoked during
    /// phase 2 of the first partition that actually merges, while the
    /// stable rewrite runs off-lock. The closure may open views, scan, and
    /// commit transactions against this database — that those operations
    /// complete *during* a checkpoint is the non-blocking guarantee, and
    /// tests pin it down through this seam. It must not start maintenance
    /// on the same table (the per-partition maintenance mutex is held).
    pub fn checkpoint_observed(
        &self,
        table: &str,
        during_merge: impl FnOnce(),
    ) -> Result<bool, DbError> {
        let mut observer = Some(during_merge);
        let mut any = false;
        for part in self.table(table)?.partitions() {
            any |= part
                .maintain_observed(MaintainTarget::All, &mut observer)?
                .is_some();
        }
        Ok(any)
    }
}

/// Table-wide conveniences the benchmark harness calls by name: each
/// resolves the table once and delegates to its [`Table`] handle.
impl Database {
    /// Names of every table, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// The creation-time options of a table ([`Table::options`]).
    pub fn options(&self, table: &str) -> Result<TableOptions, DbError> {
        Ok(self.table(table)?.options().clone())
    }

    /// Total bytes held by a table's committed delta layers, summed over
    /// partitions ([`Partition::delta_bytes`]).
    pub fn delta_bytes(&self, table: &str) -> Result<usize, DbError> {
        Ok(self.table(table)?.delta_bytes())
    }

    /// Total visible row count under a fresh snapshot.
    pub fn row_count(&self, table: &str) -> Result<u64, DbError> {
        self.read_view().visible_rows(table)
    }

    /// [`Partition::maybe_flush`] on every partition of a table. Returns
    /// whether any partition flushed.
    pub fn maybe_flush(&self, table: &str, threshold_bytes: usize) -> Result<bool, DbError> {
        let t = self.table(table)?;
        let any = t
            .partitions()
            .iter()
            .fold(false, |any, p| p.maybe_flush(threshold_bytes) | any);
        Ok(any)
    }

    /// Checkpoint: fold every partition's committed deltas into fresh
    /// stable slices — [`Partition::maintain`] with [`MaintainTarget::All`]
    /// on each partition. Returns whether any partition checkpointed.
    pub fn checkpoint(&self, table: &str) -> Result<bool, DbError> {
        self.checkpoint_observed(table, || {})
    }

    /// The best-scoring planned compaction step of partition `p`
    /// ([`MaintainTarget::Planned`]), if the table enables compaction and
    /// anything scores over its floors.
    pub fn compact_partition(
        &self,
        table: &str,
        p: usize,
    ) -> Result<Option<CompactionReport>, DbError> {
        let t = self.table(table)?;
        let parts = t.partitions();
        let part = parts.get(p).ok_or_else(|| DbError::Partition {
            table: table.to_string(),
            detail: format!("partition {p} out of range ({} partitions)", parts.len()),
        })?;
        part.maintain(MaintainTarget::Planned)
    }

    /// Current stable image of a **single-partition** table. Errors with
    /// [`DbError::Partition`] when the table is range-partitioned — one
    /// slice is not the whole image.
    pub fn stable_single(&self, table: &str) -> Result<Arc<StableTable>, DbError> {
        match self.table(table)?.partitions().as_slice() {
            [only] => Ok(only.stable()),
            parts => Err(DbError::Partition {
                table: table.to_string(),
                detail: format!(
                    "stable_single on a table with {} partitions; use \
                     db.table(name)?.partitions()[p].stable() per partition",
                    parts.len()
                ),
            }),
        }
    }
}

// The maintenance scheduler (and any server frontend) shares one
// `Arc<Database>` across threads; views travel to scanner threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<ReadView>();
};

/// Declarative description of one table scan, opened by
/// [`ReadView::scan_with`] or [`DbTxn::scan_with`].
///
/// Projection is by column index or by name; the scan can additionally be
/// restricted to an inclusive sort-key prefix range (served by the sparse
/// index) and/or a visible-rid window `[lo, hi)` (positions in the merged
/// image — what the positional DML uses to collect pre-images with early
/// exit).
///
/// ```text
/// view.scan_with("t", ScanSpec::named(&["qty", "price"]))?;
/// view.scan_with("t", ScanSpec::all().rid_range(100, 200))?;
/// txn.scan_with("t", ScanSpec::cols(vec![0]).key_range(lo, hi))?;
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScanSpec {
    proj: ScanProj,
    bounds: ScanBounds,
    rid_range: Option<(u64, u64)>,
}

#[derive(Debug, Clone, Default)]
enum ScanProj {
    /// Every column, in schema order.
    #[default]
    All,
    /// Column indices, in projection order.
    Cols(Vec<usize>),
    /// Column names, resolved against the schema at scan time.
    Names(Vec<String>),
}

impl ScanSpec {
    /// Project every column.
    pub fn all() -> Self {
        ScanSpec::default()
    }

    /// Project by column index.
    pub fn cols(cols: Vec<usize>) -> Self {
        ScanSpec {
            proj: ScanProj::Cols(cols),
            ..ScanSpec::default()
        }
    }

    /// Project by column name.
    pub fn named<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        ScanSpec {
            proj: ScanProj::Names(names.into_iter().map(Into::into).collect()),
            ..ScanSpec::default()
        }
    }

    /// Restrict to an inclusive sort-key prefix range.
    pub fn bounds(mut self, bounds: ScanBounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Restrict to the inclusive sort-key prefix range `[lo, hi]`.
    pub fn key_range(self, lo: Vec<Value>, hi: Vec<Value>) -> Self {
        self.bounds(ScanBounds {
            lo: Some(lo),
            hi: Some(hi),
        })
    }

    /// Restrict the *output* to visible positions `[lo, hi)`; the scan
    /// stops as soon as it passes `hi`.
    pub fn rid_range(mut self, lo: u64, hi: u64) -> Self {
        self.rid_range = Some((lo, hi));
        self
    }

    /// Resolve the projection against `schema`.
    fn resolve(&self, table: &str, schema: &Schema) -> Result<Vec<usize>, DbError> {
        match &self.proj {
            ScanProj::All => Ok((0..schema.len()).collect()),
            ScanProj::Cols(cols) => {
                if let Some(&c) = cols.iter().find(|&&c| c >= schema.len()) {
                    return Err(DbError::UnknownColumn {
                        table: table.to_string(),
                        column: format!("#{c}"),
                    });
                }
                Ok(cols.clone())
            }
            ScanProj::Names(names) => names
                .iter()
                .map(|n| {
                    schema.try_col(n).ok_or_else(|| DbError::UnknownColumn {
                        table: table.to_string(),
                        column: n.clone(),
                    })
                })
                .collect(),
        }
    }

    /// Build the scan over an already-resolved set of partition segments
    /// (one for unpartitioned tables): a sequential union in split order
    /// with globally consecutive output RIDs.
    pub(crate) fn open<'a>(
        &self,
        table: &str,
        schema: &Schema,
        segments: Vec<ScanSegment<'a>>,
        clock: ScanClock,
    ) -> Result<TableScan<'a>, DbError> {
        let proj = self.resolve(table, schema)?;
        let mut scan = TableScan::union(segments, proj, self.bounds.clone(), clock);
        if let Some((lo, hi)) = self.rid_range {
            scan.clamp_rids(lo, hi);
        }
        Ok(scan)
    }
}

/// The report of one [`ReadView::explain_analyze`] run: what the query
/// produced and what its scan read, as the scan counted it.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// The table scanned.
    pub table: String,
    /// Rows the scan produced.
    pub rows: u64,
    /// Block I/O the scan charged to its trackers — its own reads only,
    /// whatever else runs beside it.
    pub io: IoStats,
    /// The scan's counts: per-segment merge paths, blocks decoded vs
    /// zone-map-skipped, bytes read, batches and wall time.
    pub plan: ScanCounts,
}

impl fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "rows={} io.blocks_read={} io.bytes_read={}",
            self.rows, self.io.blocks_read, self.io.bytes_read
        )?;
        writeln!(f, "Scan {} {}", self.table, self.plan)
    }
}

/// A consistent, immutable multi-table view for query execution.
pub struct ReadView {
    tables: HashMap<String, TableView>,
    /// Shared I/O counters scans of this view charge.
    pub io: IoTracker,
    /// Shared scan-time clock scans of this view charge.
    pub clock: ScanClock,
}

/// Per-table snapshot inside a [`ReadView`]: one capture per partition,
/// in split order.
pub struct TableView {
    pub(crate) parts: Vec<PartView>,
}

/// One partition's capture inside a [`TableView`].
pub(crate) struct PartView {
    pub stable: Arc<StableTable>,
    /// Committed delta snapshot; `None` in a [`Database::clean_view`].
    pub delta: Option<Arc<dyn DeltaSnapshot>>,
    /// Shared I/O counters scoped to the partition's heat map — scans of
    /// this partition charge it so block touches feed compaction heat.
    pub heat_io: IoTracker,
}

impl PartView {
    /// The delta layers a scan of this partition must merge.
    fn layers(&self) -> DeltaLayers<'_> {
        match &self.delta {
            Some(d) => d.layers(),
            None => DeltaLayers::None,
        }
    }

    /// Visible rows of this partition.
    fn visible(&self) -> u64 {
        let dt = self.delta.as_ref().map_or(0, |d| d.delta_total());
        (self.stable.row_count() as i64 + dt) as u64
    }
}

impl TableView {
    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        self.parts[0].stable.schema()
    }

    /// Net visible-row change relative to the stable images, summed over
    /// partitions.
    pub fn delta_total(&self) -> i64 {
        self.parts
            .iter()
            .map(|p| p.delta.as_ref().map_or(0, |d| d.delta_total()))
            .sum()
    }

    /// The partition segments a scan must union, with their global rid
    /// bases.
    pub(crate) fn segments(&self) -> Vec<ScanSegment<'_>> {
        partition::build_segments(
            self.parts
                .iter()
                .map(|p| (&*p.stable, p.layers(), p.visible(), p.heat_io.clone())),
        )
    }
}

impl ReadView {
    /// The per-table snapshot of `name`.
    pub fn table(&self, name: &str) -> Result<&TableView, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Column index by name.
    pub fn col(&self, table: &str, column: &str) -> Result<usize, DbError> {
        self.table(table)?
            .schema()
            .try_col(column)
            .ok_or_else(|| DbError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            })
    }

    /// Visible row count of `table` under this view.
    pub fn visible_rows(&self, name: &str) -> Result<u64, DbError> {
        Ok(self.table(name)?.parts.iter().map(PartView::visible).sum())
    }

    /// Open a scan described by a [`ScanSpec`] — the one scan entry point
    /// ([`ReadView::explain_analyze`] takes the same spec). Partitioned
    /// tables scan as a sequential union in split order (globally
    /// consecutive RIDs).
    pub fn scan_with(&self, table: &str, spec: ScanSpec) -> Result<TableScan<'_>, DbError> {
        let t = self.table(table)?;
        spec.open(table, t.schema(), t.segments(), self.clock.clone())
    }

    /// Run `spec` against `table` to completion and return the
    /// `EXPLAIN ANALYZE`-style report: rows produced, the I/O the scan
    /// charged, and its [`ScanCounts`] — per-segment merge paths, blocks
    /// decoded vs zone-map-skipped, bytes read.
    pub fn explain_analyze(&self, table: &str, spec: ScanSpec) -> Result<QueryProfile, DbError> {
        let mut scan = self.scan_with(table, spec)?;
        while scan.next_batch().is_some() {}
        let plan = *scan.counts();
        Ok(QueryProfile {
            table: table.to_string(),
            rows: plan.rows,
            io: plan.io,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::ValueType;
    use exec::run_to_rows;

    fn inventory_db(policy: UpdatePolicy) -> Database {
        let db = Database::new();
        let schema = Schema::from_pairs(&[
            ("store", ValueType::Str),
            ("prod", ValueType::Str),
            ("new", ValueType::Bool),
            ("qty", ValueType::Int),
        ]);
        let rows: Vec<Tuple> = [
            ("London", "chair", false, 30i64),
            ("London", "stool", false, 10),
            ("London", "table", false, 20),
            ("Paris", "rug", false, 1),
            ("Paris", "stool", false, 5),
        ]
        .iter()
        .map(|(s, p, n, q)| {
            vec![
                Value::from(*s),
                Value::from(*p),
                Value::from(*n),
                Value::from(*q),
            ]
        })
        .collect();
        db.create_table(
            TableMeta::new("inventory", schema, vec![0, 1]),
            TableOptions {
                block_rows: 2,
                policy,
                ..TableOptions::default()
            },
            rows,
        )
        .unwrap();
        db
    }

    fn all_rows(db: &Database) -> Vec<Tuple> {
        let view = db.read_view();
        let mut scan = view
            .scan_with("inventory", ScanSpec::cols(vec![0, 1, 2, 3]))
            .unwrap();
        run_to_rows(&mut scan)
    }

    fn clean_rows(db: &Database) -> Vec<Tuple> {
        let view = db.clean_view();
        let mut scan = view
            .scan_with("inventory", ScanSpec::cols(vec![0, 1, 2, 3]))
            .unwrap();
        run_to_rows(&mut scan)
    }

    /// The paper's BATCH1..3 sequence, applied through the unified DML.
    fn run_paper_batches(db: &Database) {
        // BATCH1
        let mut t = db.begin();
        for (s, p, q) in [
            ("Berlin", "table", 10i64),
            ("Berlin", "cloth", 5),
            ("Berlin", "chair", 20),
        ] {
            t.insert("inventory", vec![s.into(), p.into(), true.into(), q.into()])
                .unwrap();
        }
        t.commit().unwrap();

        // BATCH2
        use exec::expr::{col, lit};
        let mut t = db.begin();
        t.update_where(
            "inventory",
            col(0).eq(lit("Berlin")).and(col(1).eq(lit("cloth"))),
            vec![(3, lit(1i64))],
        )
        .unwrap();
        t.update_where(
            "inventory",
            col(0).eq(lit("London")).and(col(1).eq(lit("stool"))),
            vec![(3, lit(9i64))],
        )
        .unwrap();
        t.delete_where(
            "inventory",
            col(0).eq(lit("Berlin")).and(col(1).eq(lit("table"))),
        )
        .unwrap();
        t.delete_where(
            "inventory",
            col(0).eq(lit("Paris")).and(col(1).eq(lit("rug"))),
        )
        .unwrap();
        t.commit().unwrap();

        // BATCH3
        let mut t = db.begin();
        for (s, p) in [("Paris", "rack"), ("London", "rack"), ("Berlin", "rack")] {
            t.insert(
                "inventory",
                vec![s.into(), p.into(), true.into(), 4i64.into()],
            )
            .unwrap();
        }
        t.commit().unwrap();
    }

    fn figure13_keys() -> Vec<(String, String)> {
        vec![
            ("Berlin".into(), "chair".into()),
            ("Berlin".into(), "cloth".into()),
            ("Berlin".into(), "rack".into()),
            ("London".into(), "chair".into()),
            ("London".into(), "rack".into()),
            ("London".into(), "stool".into()),
            ("London".into(), "table".into()),
            ("Paris".into(), "rack".into()),
            ("Paris".into(), "stool".into()),
        ]
    }

    #[test]
    fn create_and_scan() {
        let db = inventory_db(UpdatePolicy::Pdt);
        assert_eq!(clean_rows(&db).len(), 5);
        assert_eq!(db.row_count("inventory").unwrap(), 5);
    }

    #[test]
    fn scan_emits_string_columns_as_dictionary_codes() {
        // strings leave the scan coded; an operator decodes what it reads
        for policy in ALL_POLICIES {
            let db = inventory_db(policy);
            let view = db.read_view();
            let mut scan = view
                .scan_with("inventory", ScanSpec::cols(vec![0, 1, 3]))
                .unwrap();
            let b = scan.next_batch().unwrap();
            assert!(b.cols[0].as_codes().is_some(), "{policy:?}");
            assert!(b.cols[1].as_codes().is_some(), "{policy:?}");
            let first = vec!["London".into(), "chair".into(), 30i64.into()];
            assert_eq!(b.row(0), first, "{policy:?}");
        }
    }

    #[test]
    fn paper_batches_through_engine_both_policies() {
        for policy in ALL_POLICIES {
            let db = inventory_db(policy);
            run_paper_batches(&db);
            let rows = all_rows(&db);
            let keys: Vec<(String, String)> = rows
                .iter()
                .map(|r| (r[0].as_str().to_string(), r[1].as_str().to_string()))
                .collect();
            assert_eq!(keys, figure13_keys(), "{policy:?}");
        }
    }

    #[test]
    fn pdt_and_vdt_tables_produce_identical_images() {
        let pdt_db = inventory_db(UpdatePolicy::Pdt);
        let vdt_db = inventory_db(UpdatePolicy::Vdt);
        run_paper_batches(&pdt_db);
        run_paper_batches(&vdt_db);
        assert_eq!(all_rows(&pdt_db), all_rows(&vdt_db));
    }

    #[test]
    fn duplicate_key_rejected() {
        for policy in ALL_POLICIES {
            let db = inventory_db(policy);
            let mut t = db.begin();
            let err = t
                .insert(
                    "inventory",
                    vec!["London".into(), "chair".into(), true.into(), 1i64.into()],
                )
                .unwrap_err();
            assert!(matches!(err, DbError::DuplicateKey { .. }), "{policy:?}");
            t.abort();
        }
    }

    #[test]
    fn checkpoint_preserves_view_and_resets_layers() {
        for policy in ALL_POLICIES {
            let db = inventory_db(policy);
            let mut t = db.begin();
            t.insert(
                "inventory",
                vec!["Oslo".into(), "desk".into(), true.into(), 2i64.into()],
            )
            .unwrap();
            t.delete_where("inventory", exec::expr::col(1).eq(exec::expr::lit("rug")))
                .unwrap();
            t.commit().unwrap();
            let before = all_rows(&db);
            assert!(db.checkpoint("inventory").unwrap(), "{policy:?}");
            assert_eq!(all_rows(&db), before, "{policy:?}");
            // clean scan of the new image equals the merged view
            assert_eq!(clean_rows(&db), before, "{policy:?}");
            // idempotent when clean
            assert!(!db.checkpoint("inventory").unwrap(), "{policy:?}");
        }
    }

    #[test]
    fn checkpoint_abort_releases_pin_window() {
        // a failed merge aborts the pin; the store must come out exactly
        // as if the checkpoint never started — commits retained during
        // the window are dropped from the residual log (they are still in
        // the committed delta) and the next pin succeeds
        for policy in ALL_POLICIES {
            let db = inventory_db(policy);
            let mut t = db.begin();
            t.insert(
                "inventory",
                vec!["Oslo".into(), "desk".into(), true.into(), 2i64.into()],
            )
            .unwrap();
            t.commit().unwrap();

            let delta = db.tables.read()["inventory"].parts[0].delta.clone();
            let pin = delta.checkpoint_pin(db.txn_mgr.seq()).unwrap();
            // a commit lands inside the pin window...
            let mut t = db.begin();
            t.insert(
                "inventory",
                vec!["Rome".into(), "lamp".into(), true.into(), 3i64.into()],
            )
            .unwrap();
            t.commit().unwrap();
            // ...then the merge "fails" and the pin is abandoned
            pin.abort();

            let before = all_rows(&db);
            assert_eq!(before.len(), 7, "{policy:?}");
            // the next checkpoint starts from scratch and folds everything
            assert!(db.checkpoint("inventory").unwrap(), "{policy:?}");
            assert_eq!(all_rows(&db), before, "{policy:?}");
            assert_eq!(clean_rows(&db), before, "{policy:?}");
        }
    }

    #[test]
    fn flush_threshold_policy() {
        let db = inventory_db(UpdatePolicy::Pdt);
        assert!(!db.maybe_flush("inventory", usize::MAX).unwrap());
        // an empty Write-PDT has nothing to move, whatever the threshold
        assert!(!db.maybe_flush("inventory", 0).unwrap());
        let mut t = db.begin();
        t.insert(
            "inventory",
            vec!["Ams".into(), "x".into(), true.into(), 1i64.into()],
        )
        .unwrap();
        t.commit().unwrap();
        assert!(db.maybe_flush("inventory", 0).unwrap());
        assert!(!db.maybe_flush("inventory", 0).unwrap(), "flushed twice");
        // view unchanged after flush
        assert_eq!(all_rows(&db).len(), 6);
    }

    /// Levels are gauges and accumulations counters: the write layer's
    /// bytes fall at a flush, the merge-scan clock only grows. The
    /// trace layer's dropped records are in every snapshot.
    #[test]
    fn metric_kinds_follow_what_they_measure() {
        use obs::metrics::MetricValue::{Counter, Gauge};
        let db = inventory_db(UpdatePolicy::Pdt);
        run_paper_batches(&db);
        all_rows(&db);
        let m = db.metrics();
        let value = |name: &str| m.get(name).map(|e| e.value.clone());
        assert!(matches!(value("db.table.write_bytes"), Some(Gauge(_))));
        assert!(matches!(value("db.table.delta_bytes"), Some(Gauge(_))));
        assert!(matches!(value("db.scan.merge_ns"), Some(Counter(_))));
        assert!(matches!(value("obs.trace.dropped"), Some(Counter(_))));
        let written = m.value("db.table.write_bytes");
        assert!(db.maybe_flush("inventory", 0).unwrap());
        assert!(db.metrics().value("db.table.write_bytes") < written);
    }

    #[test]
    fn sort_key_update_is_delete_plus_insert() {
        for policy in ALL_POLICIES {
            let db = inventory_db(policy);
            let mut t = db.begin();
            // rename London/table -> London/bench (SK column!)
            t.update_where(
                "inventory",
                exec::expr::col(1).eq(exec::expr::lit("table")),
                vec![(1, exec::expr::lit("bench"))],
            )
            .unwrap();
            t.commit().unwrap();
            let rows = all_rows(&db);
            let prods: Vec<&str> = rows.iter().map(|r| r[1].as_str()).collect();
            assert!(prods.contains(&"bench") && !prods.contains(&"table"));
            // order maintained: bench sorts before chair
            assert_eq!(rows[0][1].as_str(), "bench", "{policy:?}");
            assert_eq!(rows.len(), 5);
        }
    }

    /// A 40-row int table split at explicit points, next to an identical
    /// unpartitioned one — every operation must agree between them.
    fn partitioned_pair(policy: UpdatePolicy) -> (Database, Database) {
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let rows: Vec<Tuple> = (0..40i64)
            .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
            .collect();
        let make = |spec: PartitionSpec| {
            let db = Database::new();
            db.create_table(
                TableMeta::new("t", schema.clone(), vec![0]),
                TableOptions::default()
                    .with_block_rows(8)
                    .with_policy(policy)
                    .with_partitions(spec),
                rows.clone(),
            )
            .unwrap();
            db
        };
        let split = make(PartitionSpec::SplitPoints(vec![
            vec![Value::Int(100)],
            vec![Value::Int(250)],
            vec![Value::Int(390)],
        ]));
        let single = make(PartitionSpec::None);
        (split, single)
    }

    fn t_rows(db: &Database) -> Vec<Tuple> {
        let view = db.read_view();
        run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0, 1])).unwrap())
    }

    #[test]
    fn partitioned_table_matches_single_partition_image() {
        for policy in ALL_POLICIES {
            let (split, single) = partitioned_pair(policy);
            let t = split.table("t").unwrap();
            assert_eq!(t.partitions().len(), 4, "{policy:?}");
            assert_eq!(t.splits().len(), 3);
            assert_eq!(t.options().policy, policy);
            assert_eq!(t_rows(&split), t_rows(&single), "{policy:?}: bulk load");
            // the same DML stream through both layouts
            for db in [&split, &single] {
                let mut t = db.begin();
                // cross-partition batch: scattered inserts, incl. beyond
                // the last split point and before the first row
                let fresh: Vec<Tuple> = [-5i64, 95, 105, 255, 395, 401]
                    .iter()
                    .map(|&k| vec![Value::Int(k), Value::Int(-k)])
                    .collect();
                t.append(
                    "t",
                    exec::Batch::from_rows(&[ValueType::Int, ValueType::Int], &fresh),
                )
                .unwrap();
                // positional deletes + updates straddling split points
                t.delete_rids("t", &[0, 12, 13, 30, 45]).unwrap();
                t.update_col(
                    "t",
                    &[5, 20, 38],
                    1,
                    columnar::ColumnVec::Int(vec![1, 2, 3]),
                )
                .unwrap();
                t.commit().unwrap();
            }
            let got = t_rows(&split);
            assert_eq!(got, t_rows(&single), "{policy:?}: after DML");
            let ks: Vec<i64> = got.iter().map(|r| r[0].as_int()).collect();
            assert!(ks.windows(2).all(|w| w[0] < w[1]), "{policy:?}: {ks:?}");
            assert_eq!(
                split.row_count("t").unwrap(),
                single.row_count("t").unwrap()
            );
        }
    }

    #[test]
    fn conflict_scope_is_the_partition() {
        use exec::expr::{col, lit};
        // what a transaction is validated against is what was committed to
        // the partitions it writes — for a partitioned table as for two
        // tables
        for policy in ALL_POLICIES {
            let (split, _) = partitioned_pair(policy);
            let set_v = |t: &mut DbTxn, key: i64, v: i64| {
                let n = t.update_where("t", col(0).eq(lit(key)), vec![(1, lit(v))]);
                assert_eq!(n.unwrap(), 1, "{policy:?}");
            };
            let mut elsewhere = split.begin();
            let mut same_row = split.begin();
            // both began before two commits to partition 0 (keys < 100)
            for v in [1, 2] {
                let mut t = split.begin();
                set_v(&mut t, 30, v);
                t.commit().unwrap();
            }
            // partition 1 (100 ≤ keys < 250) saw no commit
            set_v(&mut elsewhere, 150, -1);
            elsewhere.commit().unwrap();
            set_v(&mut same_row, 30, -2);
            let err = same_row.commit().unwrap_err();
            assert!(
                matches!(
                    err,
                    DbError::Txn(TxnError::Conflict { .. }) | DbError::Conflict { .. }
                ),
                "{policy:?}: {err}"
            );
            let got = t_rows(&split);
            assert_eq!(got[3], vec![Value::Int(30), Value::Int(2)], "{policy:?}");
            assert_eq!(got[15], vec![Value::Int(150), Value::Int(-1)], "{policy:?}");
        }
    }

    #[test]
    fn sort_key_rewrite_moves_rows_between_partitions() {
        for policy in ALL_POLICIES {
            let (split, single) = partitioned_pair(policy);
            for db in [&split, &single] {
                let mut t = db.begin();
                // 30 lives in partition 0; rewrite to 305 (partition 2)
                // and 380 down to 25 (partition 2 → 0)
                let n = t
                    .update_col("t", &[3, 38], 0, columnar::ColumnVec::Int(vec![305, 25]))
                    .unwrap();
                assert_eq!(n, 2, "{policy:?}");
                t.commit().unwrap();
            }
            assert_eq!(t_rows(&split), t_rows(&single), "{policy:?}");
            // the moved keys are present exactly once and in order
            let ks: Vec<i64> = t_rows(&split).iter().map(|r| r[0].as_int()).collect();
            assert!(ks.windows(2).all(|w| w[0] < w[1]), "{policy:?}: {ks:?}");
            assert!(ks.contains(&305) && ks.contains(&25) && !ks.contains(&30));
        }
    }

    #[test]
    fn partitioned_checkpoint_and_flush_preserve_image() {
        for policy in ALL_POLICIES {
            let (split, _) = partitioned_pair(policy);
            let mut t = split.begin();
            t.insert("t", vec![Value::Int(95), Value::Int(0)]).unwrap();
            t.insert("t", vec![Value::Int(395), Value::Int(0)]).unwrap();
            t.commit().unwrap();
            let before = t_rows(&split);
            assert!(split.maybe_flush("t", 0).unwrap() || policy != UpdatePolicy::Pdt);
            assert!(split.checkpoint("t").unwrap(), "{policy:?}");
            assert_eq!(t_rows(&split), before, "{policy:?}: merged view");
            let clean = run_to_rows(
                &mut split
                    .clean_view()
                    .scan_with("t", ScanSpec::cols(vec![0, 1]))
                    .unwrap(),
            );
            assert_eq!(clean, before, "{policy:?}: clean view");
            // only the touched partitions had anything to fold: a second
            // checkpoint is a no-op everywhere
            assert!(!split.checkpoint("t").unwrap(), "{policy:?}");
            // per-partition steps work; the by-index delegation
            // bounds-checks
            let t = split.table("t").unwrap();
            let step = t.partitions()[0].maintain(MaintainTarget::All);
            assert!(step.unwrap().is_none(), "{policy:?}");
            assert!(matches!(
                split.compact_partition("t", 9),
                Err(DbError::Partition { .. })
            ));
        }
    }

    /// A handle resolved before a checkpoint reads the partition's live
    /// slot: the new slice, an empty delta. A view opened before keeps
    /// scanning the slice it captured.
    #[test]
    fn table_handle_sees_the_installed_slice_and_older_views_keep_theirs() {
        for policy in ALL_POLICIES {
            let (split, _) = partitioned_pair(policy);
            let t = split.table("t").unwrap();
            let mut txn = split.begin();
            txn.insert("t", vec![Value::Int(95), Value::Int(0)])
                .unwrap();
            txn.commit().unwrap();
            let before: Vec<Arc<StableTable>> = t.partitions().iter().map(|p| p.stable()).collect();
            let old_clean = split.clean_view();
            let old_merged = split.read_view();
            // an untouched partition holds what an empty store holds
            let empty = t.partitions()[1].delta_bytes();
            assert!(t.partitions()[0].delta_bytes() > empty, "{policy:?}");
            assert!(split.checkpoint("t").unwrap(), "{policy:?}");
            let parts = t.partitions();
            assert!(!Arc::ptr_eq(&parts[0].stable(), &before[0]), "{policy:?}");
            assert_eq!(parts[0].stable().row_count(), before[0].row_count() + 1);
            // the untouched partitions had nothing to fold
            assert!(Arc::ptr_eq(&parts[1].stable(), &before[1]), "{policy:?}");
            assert!(parts.iter().all(|p| p.delta_bytes() == empty), "{policy:?}");
            assert_eq!(t.delta_bytes(), 4 * empty, "{policy:?}");
            let keys = |view: &ReadView| -> Vec<i64> {
                run_to_rows(&mut view.scan_with("t", ScanSpec::cols(vec![0])).unwrap())
                    .iter()
                    .map(|r| r[0].as_int())
                    .collect()
            };
            assert!(!keys(&old_clean).contains(&95), "{policy:?}: old image");
            assert!(keys(&old_merged).contains(&95), "{policy:?}: old cut");
            assert!(keys(&split.clean_view()).contains(&95), "{policy:?}");
            assert_eq!(keys(&old_merged), keys(&split.read_view()), "{policy:?}");
        }
    }

    /// Creating a table under a live table's name is refused before
    /// anything is built: the live table, and a transaction that began
    /// against it, commit as if nothing happened.
    #[test]
    fn create_table_refuses_a_live_name() {
        for policy in ALL_POLICIES {
            let db = int_db(policy, 10);
            let mut txn = db.begin();
            txn.insert("t", vec![Value::Int(1000), Value::Int(-1)])
                .unwrap();
            let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
            let rows: Vec<Tuple> = (0..3i64)
                .map(|i| vec![Value::Int(i), Value::Int(i)])
                .collect();
            let err = db
                .create_table(
                    TableMeta::new("t", schema, vec![0]),
                    TableOptions::default().with_policy(policy),
                    rows,
                )
                .unwrap_err();
            assert!(matches!(&err, DbError::TableExists(t) if t == "t"), "{err}");
            assert_eq!(err.to_string(), "table t already exists");
            txn.commit().unwrap();
            assert_eq!(db.row_count("t").unwrap(), 11, "{policy:?}");
            let keys: Vec<i64> = t_rows(&db).iter().map(|r| r[0].as_int()).collect();
            assert!(keys.contains(&1000), "{policy:?}: the acknowledged commit");
        }
    }

    #[test]
    fn count_spec_balances_and_empty_splits_allowed() {
        let schema = Schema::from_pairs(&[("k", ValueType::Int)]);
        let rows: Vec<Tuple> = (0..100i64).map(|i| vec![Value::Int(i)]).collect();
        let db = Database::new();
        db.create_table(
            TableMeta::new("t", schema.clone(), vec![0]),
            TableOptions::default().with_partitions(PartitionSpec::Count(4)),
            rows,
        )
        .unwrap();
        let t = db.table("t").unwrap();
        assert_eq!(t.partitions().len(), 4);
        for p in t.partitions() {
            assert_eq!(p.stable().row_count(), 25);
        }
        // explicit splits outside the populated range: empty partitions
        let db = Database::new();
        db.create_table(
            TableMeta::new("e", schema, vec![0]),
            TableOptions::default().with_partitions(PartitionSpec::SplitPoints(vec![
                vec![Value::Int(-10)],
                vec![Value::Int(1000)],
            ])),
            vec![vec![Value::Int(5)]],
        )
        .unwrap();
        let e = db.table("e").unwrap();
        let rows: Vec<u64> = e
            .partitions()
            .iter()
            .map(|p| p.stable().row_count())
            .collect();
        assert_eq!(rows, vec![0, 1, 0]);
        // writes into (and scans across) empty partitions work
        let mut t = db.begin();
        t.insert("e", vec![Value::Int(-20)]).unwrap();
        t.insert("e", vec![Value::Int(2000)]).unwrap();
        t.commit().unwrap();
        let view = db.read_view();
        let ks: Vec<i64> = run_to_rows(&mut view.scan_with("e", ScanSpec::cols(vec![0])).unwrap())
            .iter()
            .map(|r| r[0].as_int())
            .collect();
        assert_eq!(ks, vec![-20, 5, 2000]);
        // invalid specs fail loudly at create time
        let db = Database::new();
        assert!(matches!(
            db.create_table(
                TableMeta::new("bad", Schema::from_pairs(&[("k", ValueType::Int)]), vec![0]),
                TableOptions::default().with_partitions(PartitionSpec::SplitPoints(vec![
                    vec![Value::Int(9)],
                    vec![Value::Int(3)],
                ])),
                vec![],
            ),
            Err(DbError::Partition { .. })
        ));
        // names that would escape the image directory or break the
        // line-oriented MANIFEST are refused
        for bad in [
            "", ".hidden", "../x", "a/b", "a\\b", "a\0b", "a\nb", "a\rb", "a\tb",
        ] {
            let meta = TableMeta::new(bad, Schema::from_pairs(&[("k", ValueType::Int)]), vec![0]);
            assert!(
                matches!(
                    db.create_table(meta, TableOptions::default(), vec![]),
                    Err(DbError::Partition { .. })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn partition_like_table_name_does_not_alias_a_partition() {
        // "t#1" beside a 2-partition "t": no state is resolved by a
        // "table#partition" string, so the two never meet — through
        // commits, a checkpoint and recovery
        let dir = std::env::temp_dir().join(format!("pdt_hash_name_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (wal, images) = (dir.join("db.wal"), dir.join("images"));
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let base = |scale: i64| -> Vec<Tuple> {
            (0..20i64)
                .map(|i| vec![Value::Int(i * 10), Value::Int(i * scale)])
                .collect()
        };
        let create = |db: &Database| {
            let split = PartitionSpec::SplitPoints(vec![vec![Value::Int(100)]]);
            for (name, spec, scale) in [("t", split, 1), ("t#1", PartitionSpec::None, 7)] {
                db.create_table(
                    TableMeta::new(name, schema.clone(), vec![0]),
                    TableOptions::default()
                        .with_block_rows(8)
                        .with_partitions(spec),
                    base(scale),
                )
                .unwrap();
            }
        };
        let rows = |db: &Database, name: &str| {
            run_to_rows(
                &mut db
                    .read_view()
                    .scan_with(name, ScanSpec::cols(vec![0, 1]))
                    .unwrap(),
            )
        };
        let mut model: HashMap<&str, Vec<Tuple>> =
            HashMap::from([("t", base(1)), ("t#1", base(7))]);
        let db = Database::with_storage(&wal, &images).unwrap();
        create(&db);
        assert_eq!(db.table("t").unwrap().partitions().len(), 2);
        for round in 0..3i64 {
            for name in ["t", "t#1"] {
                // one insert per partition of "t", the same keys in "t#1"
                let fresh = [
                    vec![Value::Int(5 + round), Value::Int(round)],
                    vec![Value::Int(155 + round), Value::Int(-round)],
                ];
                let mut t = db.begin();
                for row in &fresh {
                    t.insert(name, row.clone()).unwrap();
                }
                t.delete_where(
                    name,
                    exec::expr::col(0).eq(exec::expr::lit(10 * (round + 1))),
                )
                .unwrap();
                t.commit().unwrap();
                let m = model.get_mut(name).unwrap();
                m.extend(fresh);
                m.retain(|r| r[0] != Value::Int(10 * (round + 1)));
                m.sort();
            }
            if round == 1 {
                assert!(db.checkpoint("t").unwrap());
                assert!(db.checkpoint("t#1").unwrap());
            }
        }
        for name in ["t", "t#1"] {
            assert_eq!(rows(&db, name), model[name], "{name}: live");
        }
        drop(db);
        let db = Database::with_storage(&wal, &images).unwrap();
        create(&db);
        db.recover_from(&wal).unwrap();
        for name in ["t", "t#1"] {
            assert_eq!(rows(&db, name), model[name], "{name}: recovered");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partitioned_wal_recovery_restores_every_partition() {
        for policy in ALL_POLICIES {
            let dir = std::env::temp_dir().join(format!("pdt_part_wal_{policy:?}"));
            std::fs::create_dir_all(&dir).unwrap();
            let wal = dir.join("part.wal");
            let _ = std::fs::remove_file(&wal);
            let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
            let rows: Vec<Tuple> = (0..30i64)
                .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
                .collect();
            let splits =
                PartitionSpec::SplitPoints(vec![vec![Value::Int(100)], vec![Value::Int(200)]]);
            let opts = TableOptions::default()
                .with_block_rows(8)
                .with_policy(policy)
                .with_partitions(splits.clone());
            let make = || {
                let db = Database::with_wal(&wal).unwrap();
                db.create_table(
                    TableMeta::new("t", schema.clone(), vec![0]),
                    opts.clone(),
                    rows.clone(),
                )
                .unwrap();
                db
            };
            let db = make();
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(55), Value::Int(0)]).unwrap();
            t.insert("t", vec![Value::Int(155), Value::Int(0)]).unwrap();
            t.delete_rids("t", &[25]).unwrap();
            t.commit().unwrap();
            // checkpoint only the middle partition: its commits are
            // covered by a partition-tagged marker, the others replay
            let step = db.table("t").unwrap().partitions()[1].maintain(MaintainTarget::All);
            assert!(step.unwrap().is_some(), "{policy:?}");
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(165), Value::Int(0)]).unwrap();
            t.commit().unwrap();
            let want = t_rows(&db);
            drop(db);
            // crash: rebuild from the *original* base for partitions 0/2
            // and from nothing newer for partition 1 — except the
            // checkpointed slice, which the marker says is durable. The
            // harness model: recreate with the same splits, recover.
            let recovered = make();
            // partition 1's base must be its checkpointed slice
            // (recreating from the original rows would double-apply the
            // folded commits if the marker failed to cover them). Here we
            // recreate from the original rows, so recovery must re-apply
            // partition 1's pre-checkpoint commits… unless the marker
            // skips them. To keep the oracle exact we only assert the
            // *unchecked* partitions and the post-checkpoint commit.
            recovered.recover_from(&wal).unwrap();
            let got = t_rows(&recovered);
            let want_keys: std::collections::BTreeSet<i64> =
                want.iter().map(|r| r[0].as_int()).collect();
            let got_keys: std::collections::BTreeSet<i64> =
                got.iter().map(|r| r[0].as_int()).collect();
            // partition 0 (keys < 100) and partition 2 (keys ≥ 200)
            // recover exactly; partition 1 is missing the checkpointed
            // insert of 155 (folded into the slice we discarded) but
            // keeps the post-marker 165
            for k in want_keys.iter().filter(|&&k| !(100..200).contains(&k)) {
                assert!(got_keys.contains(k), "{policy:?}: lost key {k}");
            }
            assert!(got_keys.contains(&165), "{policy:?}: post-marker commit");
            assert!(
                !got_keys.contains(&155),
                "{policy:?}: marker must cover the folded commit"
            );
            let _ = std::fs::remove_file(&wal);
        }
    }

    #[test]
    fn image_recovery_restores_folded_history() {
        // the WAL-only twin of this test documents that commits folded by
        // a checkpoint marker are LOST on recovery (the slice was never
        // persisted); with an image store the marker references a durable
        // image and recovery restores them exactly
        for policy in ALL_POLICIES {
            let dir =
                std::env::temp_dir().join(format!("pdt_img_rec_{policy:?}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let wal = dir.join("t.wal");
            let images = dir.join("images");
            let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
            let rows: Vec<Tuple> = (0..30i64)
                .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
                .collect();
            let opts = TableOptions::default()
                .with_block_rows(8)
                .with_policy(policy)
                .with_partitions(PartitionSpec::SplitPoints(vec![
                    vec![Value::Int(100)],
                    vec![Value::Int(200)],
                ]));
            let make = || {
                let db = Database::with_storage(&wal, &images).unwrap();
                db.create_table(
                    TableMeta::new("t", schema.clone(), vec![0]),
                    opts.clone(),
                    rows.clone(),
                )
                .unwrap();
                db
            };
            let db = make();
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(55), Value::Int(0)]).unwrap();
            t.insert("t", vec![Value::Int(155), Value::Int(0)]).unwrap();
            t.delete_rids("t", &[25]).unwrap();
            t.commit().unwrap();
            let step = db.table("t").unwrap().partitions()[1].maintain(MaintainTarget::All);
            assert!(step.unwrap().is_some(), "{policy:?}");
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(165), Value::Int(0)]).unwrap();
            t.commit().unwrap();
            let want = t_rows(&db);
            drop(db);
            let recovered = make();
            recovered.recover_from(&wal).unwrap();
            assert_eq!(
                t_rows(&recovered),
                want,
                "{policy:?}: image recovery must restore the folded insert of 155"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn db_error_displays_readable_messages_with_sources() {
        // the differential harness prints these on divergence — they must
        // read like sentences, not Debug dumps
        let cases = [
            (
                DbError::UnknownTable("inv".into()),
                "unknown table inv",
                false,
            ),
            (
                DbError::UnknownColumn {
                    table: "inv".into(),
                    column: "ghost".into(),
                },
                "unknown column ghost in table inv",
                false,
            ),
            (
                DbError::DuplicateKey {
                    table: "inv".into(),
                    key: vec![Value::Int(7)],
                },
                "duplicate sort key [Int(7)] in table inv",
                false,
            ),
            (
                DbError::Conflict {
                    table: "inv".into(),
                    reason: "concurrent insert of sort key [Int(7)]".into(),
                },
                "write-write conflict on table inv: concurrent insert of sort key [Int(7)]",
                false,
            ),
            (
                DbError::BatchShape {
                    table: "inv".into(),
                    detail: "batch has 2 columns, table has 4".into(),
                },
                "batch does not fit table inv: batch has 2 columns, table has 4",
                false,
            ),
            (
                DbError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "wal gone",
                )),
                "io error: wal gone",
                true,
            ),
        ];
        use std::error::Error;
        for (err, want, has_source) in cases {
            assert_eq!(err.to_string(), want);
            assert_eq!(err.source().is_some(), has_source, "{err}");
        }
        // wrapped errors chain their source for `anyhow`-style reporting
        let err = DbError::Txn(txn::TxnError::misfit("inv", "of another policy".into()));
        assert!(err.source().unwrap().to_string().contains("inv"));
    }

    #[test]
    fn unknown_table_errors_from_every_entry_point() {
        let db = inventory_db(UpdatePolicy::Pdt);
        assert!(matches!(db.table("nope"), Err(DbError::UnknownTable(_))));
        assert!(matches!(db.options("nope"), Err(DbError::UnknownTable(_))));
        assert!(matches!(
            db.stable_single("nope"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            db.row_count("nope"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            db.maybe_flush("nope", 0),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            db.checkpoint("nope"),
            Err(DbError::UnknownTable(_))
        ));

        let view = db.read_view();
        assert!(matches!(view.table("nope"), Err(DbError::UnknownTable(_))));
        assert!(matches!(
            view.col("nope", "store"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            view.col("inventory", "ghost_col"),
            Err(DbError::UnknownColumn { .. })
        ));
        assert!(matches!(
            view.visible_rows("nope"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            view.scan_with("nope", ScanSpec::cols(vec![0])),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            view.scan_with("nope", ScanSpec::named(["store"])),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            view.scan_with("inventory", ScanSpec::named(["ghost_col"])),
            Err(DbError::UnknownColumn { .. })
        ));

        let mut t = db.begin();
        assert!(matches!(
            t.insert("nope", vec!["x".into()]),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            t.delete_where("nope", exec::expr::lit(true)),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            t.update_where("nope", exec::expr::lit(true), vec![]),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            t.visible_rows("nope"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            t.scan_with("nope", ScanSpec::cols(vec![0])),
            Err(DbError::UnknownTable(_))
        ));
        t.abort();
    }

    fn int_db(policy: UpdatePolicy, n: i64) -> Database {
        int_db_with(TableOptions::default().with_policy(policy), n)
    }

    /// `n` rows `(10 i, i)` in blocks of 16, under `opts`.
    fn int_db_with(opts: TableOptions, n: i64) -> Database {
        let db = Database::new();
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let rows: Vec<Tuple> = (0..n)
            .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
            .collect();
        db.create_table(
            TableMeta::new("t", schema, vec![0]),
            opts.with_block_rows(16),
            rows,
        )
        .unwrap();
        db
    }

    #[test]
    fn compact_range_preserves_view_all_policies() {
        use exec::expr::{col, lit};
        for policy in ALL_POLICIES {
            let db = int_db(policy, 128); // 8 blocks of 16
            let mut t = db.begin();
            // churn inside blocks 2..4 (keys 320..639)...
            t.insert("t", vec![Value::Int(321), Value::Int(-1)])
                .unwrap();
            t.insert("t", vec![Value::Int(325), Value::Int(-2)])
                .unwrap();
            t.delete_where("t", col(0).eq(lit(400i64))).unwrap();
            t.update_where("t", col(0).eq(lit(500i64)), vec![(1, lit(-9i64))])
                .unwrap();
            // ...and outside them: block 0, block 6, and a trailing append
            t.insert("t", vec![Value::Int(5), Value::Int(-3)]).unwrap();
            t.delete_where("t", col(0).eq(lit(1000i64))).unwrap();
            t.insert("t", vec![Value::Int(99999), Value::Int(-4)])
                .unwrap();
            t.commit().unwrap();
            let before = t_rows(&db);

            let part0 = |target| db.table("t").unwrap().partitions()[0].maintain(target);
            let report = part0(MaintainTarget::Blocks(2, 4)).unwrap().unwrap();
            assert_eq!(report.blocks_merged, 2, "{policy:?}");
            assert_eq!(report.blocks_reused, 6, "{policy:?}");
            assert!(
                report.stable_bytes_written < report.stable_bytes_total,
                "{policy:?}: incremental step rewrote {} of {} bytes",
                report.stable_bytes_written,
                report.stable_bytes_total
            );
            assert_eq!(t_rows(&db), before, "{policy:?}: view changed");

            // the folded window is out of the delta; the rest is not — a
            // clean scan shows the folded range but not the residual
            let clean = {
                let view = db.clean_view();
                let mut scan = view.scan_with("t", ScanSpec::cols(vec![0, 1])).unwrap();
                run_to_rows(&mut scan)
            };
            assert!(
                clean.iter().any(|r| r[0] == Value::Int(321)),
                "{policy:?}: in-range insert not folded"
            );
            assert!(
                clean.iter().all(|r| r[0] != Value::Int(400)),
                "{policy:?}: in-range delete not folded"
            );
            assert!(
                clean.iter().all(|r| r[0] != Value::Int(5)),
                "{policy:?}: out-of-range insert leaked into stable"
            );
            assert!(
                clean.iter().any(|r| r[0] == Value::Int(1000)),
                "{policy:?}: out-of-range delete leaked into stable"
            );

            // a trailing-range compaction folds the append gap too
            let nb = db.stable_single("t").unwrap().num_blocks();
            part0(MaintainTarget::Blocks(nb - 1, nb)).unwrap().unwrap();
            assert_eq!(t_rows(&db), before, "{policy:?}: tail fold changed view");

            // and a subsequent whole-partition checkpoint still agrees
            db.checkpoint("t").unwrap();
            assert_eq!(
                t_rows(&db),
                before,
                "{policy:?}: checkpoint after compaction"
            );
        }
    }

    #[test]
    fn compact_partition_follows_heat() {
        use exec::expr::{col, lit};
        for policy in ALL_POLICIES {
            let opts =
                TableOptions::default()
                    .with_policy(policy)
                    .with_compaction(CompactionConfig {
                        enabled: true,
                        max_unit_blocks: 2,
                        min_delta_bytes: 1,
                    });
            let db = int_db_with(opts, 128);
            // nothing staged: nothing to pin, nothing planned
            assert!(
                db.compact_partition("t", 0).unwrap().is_none(),
                "{policy:?}"
            );
            let mut t = db.begin();
            t.update_where("t", col(0).eq(lit(480i64)), vec![(1, lit(-1i64))])
                .unwrap();
            t.commit().unwrap();
            let before = t_rows(&db);
            let report = db.compact_partition("t", 0).unwrap().unwrap();
            assert!(report.blocks_merged <= 2, "{policy:?}: unit bound");
            assert!(report.blocks_reused >= 6, "{policy:?}");
            assert_eq!(t_rows(&db), before, "{policy:?}");
            // heat reset with the swap: the planner has nothing left
            assert!(
                db.compact_partition("t", 0).unwrap().is_none(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn compaction_commits_during_merge_survive() {
        // a commit landing inside the off-lock merge window must stay
        // visible after install (it rides the residual path, seq > pin)
        for policy in ALL_POLICIES {
            let db = int_db(policy, 128);
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(321), Value::Int(-1)])
                .unwrap();
            t.commit().unwrap();
            // commit lands mid-merge, inside and outside the window
            let mut mid_merge = Some(|| {
                let mut t = db.begin();
                t.insert("t", vec![Value::Int(323), Value::Int(-2)])
                    .unwrap();
                t.insert("t", vec![Value::Int(7), Value::Int(-3)]).unwrap();
                t.commit().unwrap();
            });
            db.table("t").unwrap().partitions()[0]
                .maintain_observed(MaintainTarget::Blocks(2, 4), &mut mid_merge)
                .unwrap()
                .expect("delta pinned");
            assert!(mid_merge.is_none(), "{policy:?}: observer never ran");
            let keys: Vec<i64> = t_rows(&db).iter().map(|r| r[0].as_int()).collect();
            assert!(keys.contains(&321), "{policy:?}: pinned insert lost");
            assert!(keys.contains(&323), "{policy:?}: mid-merge insert lost");
            assert!(keys.contains(&7), "{policy:?}: mid-merge insert lost");
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{policy:?}: order");
        }
    }
}
