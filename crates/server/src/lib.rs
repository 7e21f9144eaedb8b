//! # Concurrent session front end
//!
//! The engine ([`engine::Database`]) is a library: one process, direct
//! calls, the caller orchestrates maintenance. This crate is the serving
//! layer on top — the piece a "heavy traffic" deployment of the paper's
//! differential update architecture needs:
//!
//! * a [`Server`] owning one `Arc<Database>` plus (optionally) the
//!   background [`MaintenanceScheduler`];
//! * independent [`Session`] handles, safe to use from any thread, with
//!   [`Server::spawn`] running a session closure on a **bounded** worker
//!   pool (thread-per-session; saturation is reported as
//!   [`ServerError::Busy`], not queued unboundedly);
//! * write **admission control** ([`AdmissionConfig`]): a transaction's
//!   first write to a table is delayed — with a poke to the scheduler —
//!   or rejected ([`ServerError::Backpressure`]) when the table's delta
//!   bytes exceed a multiple of its maintenance budget, so sustained
//!   writers cannot outrun checkpointing and grow the delta without
//!   bound;
//! * per-table and per-session **metrics** ([`MetricsSnapshot`]): commit
//!   and query latency percentiles (p50/p95/p99 from
//!   [`obs::metrics::Histogram`]s), throughput, abort/conflict/backpressure
//!   counters — recorded by the sessions into the database's one
//!   [`obs::Registry`] and read back as views over one snapshot of it.
//!
//! Durability rides the engine's group-commit WAL path: sessions
//! committing concurrently enqueue their records under the commit guard
//! and share one append/fsync window (see `txn::wal::GroupWal`), which is
//! what makes many small concurrent transactions cheap.
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use engine::Database;
//! # use server::{Server, ServerConfig};
//! let db = Arc::new(Database::new());
//! // ... create tables ...
//! let server = Server::start(db, ServerConfig::default());
//! let h = server.spawn("writer", |session| {
//!     let txn = session.begin();
//!     // txn.append(...)?; txn.commit()?
//!     txn.commit()
//! }).unwrap();
//! h.join().unwrap().unwrap();
//! println!("{}", server.metrics());
//! ```

pub mod admission;
pub mod metrics;
mod pool;

pub use admission::AdmissionConfig;
pub use metrics::{CounterSnapshot, MetricsSnapshot, SessionMetricsSnapshot, TableMetricsSnapshot};

use columnar::{ColumnVec, Tuple};
use engine::{
    Database, DbError, DbTxn, MaintenanceConfig, MaintenanceScheduler, ReadView, ScanSpec,
};
use exec::expr::Expr;
use exec::{Batch, ScanBounds, TableScan};
use metrics::Series;
use obs::metrics::Counter;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Serving-layer failure.
#[derive(Debug)]
pub enum ServerError {
    /// The underlying engine call failed (conflicts surface here too).
    Db(DbError),
    /// Admission control rejected a write: the table's delta exceeds the
    /// hard backpressure limit and the delay budget did not drain it.
    /// Retry after maintenance (or an explicit checkpoint) catches up.
    Backpressure {
        table: String,
        delta_bytes: usize,
        limit_bytes: usize,
    },
    /// Every worker of the bounded session pool is busy.
    Busy { limit: usize },
    /// A spawned session closure panicked.
    SessionPanicked(String),
    /// The server was shut down.
    Shutdown,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Db(e) => write!(f, "database error: {e}"),
            ServerError::Backpressure {
                table,
                delta_bytes,
                limit_bytes,
            } => write!(
                f,
                "backpressure on table {table}: {delta_bytes} delta bytes exceed \
                 the {limit_bytes}-byte admission limit"
            ),
            ServerError::Busy { limit } => {
                write!(f, "session pool saturated ({limit} workers busy)")
            }
            ServerError::SessionPanicked(m) => write!(f, "session panicked: {m}"),
            ServerError::Shutdown => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DbError> for ServerError {
    fn from(e: DbError) -> Self {
        ServerError::Db(e)
    }
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool size = maximum concurrently running spawned sessions.
    /// Default 8.
    pub max_sessions: usize,
    /// Background maintenance cadence; `None` runs no scheduler (the
    /// caller checkpoints explicitly). Default: the engine's default
    /// cadence.
    pub maintenance: Option<MaintenanceConfig>,
    /// Write admission control. Default: [`AdmissionConfig::default`].
    pub admission: AdmissionConfig,
    /// Slow-query log threshold: a [`Session::query`] taking at least
    /// this long emits an `obs` `slow.scan` trace event (when tracing is
    /// enabled) carrying the query label and wall time. `None` (the
    /// default) never emits. The commit-side analogue is
    /// [`engine::TableOptions::slow_commit_threshold`].
    pub slow_query_threshold: Option<std::time::Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 8,
            maintenance: Some(MaintenanceConfig::default()),
            admission: AdmissionConfig::default(),
            slow_query_threshold: None,
        }
    }
}

struct Shared {
    db: Arc<Database>,
    admission: AdmissionConfig,
    slow_query_threshold: Option<std::time::Duration>,
    started: Instant,
    /// Owned here (not by `Server`) so sessions can poke it; taken out on
    /// shutdown.
    sched: Mutex<Option<MaintenanceScheduler>>,
}

impl Shared {
    fn poke_maintenance(&self) {
        if let Some(s) = &*self.sched.lock() {
            s.poke();
        }
    }

    /// The database's metrics plus `server.uptime_ns`, with the per-table
    /// and per-session views read out of them.
    fn metrics(&self) -> MetricsSnapshot {
        let uptime = self.started.elapsed();
        let mut unified = self.db.metrics();
        let uptime_ns = u64::try_from(uptime.as_nanos()).unwrap_or(u64::MAX);
        unified.insert(
            "server.uptime_ns",
            &[],
            obs::metrics::MetricValue::Gauge(uptime_ns),
        );
        MetricsSnapshot::over(uptime, unified)
    }
}

/// Session ids, process-wide: they tell same-named sessions apart and
/// order them by creation even when two servers share one database.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(0);

/// The serving front end: owns the database and its maintenance, hands
/// out [`Session`]s.
pub struct Server {
    shared: Arc<Shared>,
    pool: pool::WorkerPool,
}

impl Server {
    /// Start serving `db`: spin up the worker pool and (per
    /// [`ServerConfig::maintenance`]) the background maintenance
    /// scheduler.
    pub fn start(db: Arc<Database>, cfg: ServerConfig) -> Server {
        let sched = cfg
            .maintenance
            .map(|m| MaintenanceScheduler::start(db.clone(), m));
        Server {
            shared: Arc::new(Shared {
                db,
                admission: cfg.admission,
                slow_query_threshold: cfg.slow_query_threshold,
                started: Instant::now(),
                sched: Mutex::new(sched),
            }),
            pool: pool::WorkerPool::new(cfg.max_sessions),
        }
    }

    /// Cold-start a storage-backed server: open (or create) the database
    /// at `wal` with persisted checkpoint images under `image_dir`, let
    /// `register` declare the schema, then recover — checkpointed
    /// partitions are rebuilt from their compressed images and only the
    /// WAL tail past each checkpoint marker is replayed — and start
    /// serving. This is the restart path of a durable deployment: the
    /// folded history a checkpoint dropped from replay comes back from
    /// the images, not the log.
    pub fn cold_start(
        wal: &std::path::Path,
        image_dir: &std::path::Path,
        register: impl FnOnce(&Database) -> Result<(), DbError>,
        cfg: ServerConfig,
    ) -> Result<Server, ServerError> {
        let db = Database::with_storage(wal, image_dir)?;
        register(&db)?;
        if wal.exists() {
            db.recover_from(wal)?;
        }
        Ok(Self::start(Arc::new(db), cfg))
    }

    /// The served database.
    pub fn db(&self) -> &Arc<Database> {
        &self.shared.db
    }

    /// Open a session used from the calling thread. Sessions are
    /// independent: each transaction gets its own snapshot, commits are
    /// coordinated by the engine.
    pub fn session(&self, name: &str) -> Session {
        let id = NEXT_SESSION.fetch_add(1, Relaxed);
        let reg = self.shared.db.registry();
        let labels = [("session", name), ("id", &id.to_string())];
        Session {
            shared: self.shared.clone(),
            name: name.to_string(),
            id,
            series: Series::resolve(reg, "server.session", "query_latency_ns", &labels),
            queries: reg.counter("server.session.queries", &labels),
            labels: Mutex::new(HashMap::new()),
        }
    }

    /// Run a session closure on the bounded worker pool
    /// (thread-per-session). Returns [`ServerError::Busy`] when all
    /// workers are occupied — the caller decides whether to retry.
    pub fn spawn<T, F>(&self, name: &str, f: F) -> Result<SessionHandle<T>, ServerError>
    where
        T: Send + 'static,
        F: FnOnce(&Session) -> T + Send + 'static,
    {
        let slot = self
            .pool
            .try_reserve()
            .map_err(|limit| ServerError::Busy { limit })?;
        let session = self.session(name);
        let (tx, rx) = mpsc::channel();
        let job = Box::new(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&session)));
            slot.fetch_sub(1, Relaxed);
            let _ = tx.send(out.map_err(|p| {
                p.downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string())
            }));
        });
        self.pool.submit(job).map_err(|()| ServerError::Shutdown)?;
        Ok(SessionHandle { rx })
    }

    /// Maximum concurrently running spawned sessions.
    pub fn max_sessions(&self) -> usize {
        self.pool.limit()
    }

    /// Freeze and return all serving metrics — the database's, its
    /// maintenance's (inline and scheduled) and the sessions'.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics()
    }

    /// Wake the maintenance workers now (admission control does this
    /// automatically when a table runs hot).
    pub fn poke_maintenance(&self) {
        self.shared.poke_maintenance();
    }

    /// Run maintenance to quiescence (test/benchmark support). No-op
    /// without a scheduler.
    pub fn drain_maintenance(&self) -> Result<(), DbError> {
        match &*self.shared.sched.lock() {
            Some(s) => s.drain(),
            None => Ok(()),
        }
    }

    /// Stop the worker pool (letting queued sessions finish) and the
    /// maintenance scheduler; returns the final metrics, frozen after the
    /// workers joined.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.pool.shutdown();
        if let Some(s) = self.shared.sched.lock().take() {
            s.shutdown();
        }
        self.shared.metrics()
    }
}

/// Handle to a session closure running on the pool.
pub struct SessionHandle<T> {
    rx: mpsc::Receiver<Result<T, String>>,
}

impl<T> SessionHandle<T> {
    /// Block until the session closure finishes and return its result.
    pub fn join(self) -> Result<T, ServerError> {
        match self.rx.recv() {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(panic)) => Err(ServerError::SessionPanicked(panic)),
            Err(_) => Err(ServerError::Shutdown),
        }
    }
}

/// One client's handle onto the server: begin transactions, run queries,
/// read its own metrics. Cheap to create; safe to move across threads.
pub struct Session {
    shared: Arc<Shared>,
    name: String,
    id: u64,
    series: Series,
    queries: Arc<Counter>,
    /// The `server.table.*` handles of every table / query label this
    /// session recorded under, resolved on first use.
    labels: Mutex<HashMap<String, Arc<Series>>>,
}

impl Session {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `server.table.*{table = label}` handles.
    fn label(&self, label: &str) -> Arc<Series> {
        let mut labels = self.labels.lock();
        if let Some(s) = labels.get(label) {
            return s.clone();
        }
        let reg = self.shared.db.registry();
        let s = Arc::new(Series::resolve(
            reg,
            "server.table",
            "scan_latency_ns",
            &[("table", label)],
        ));
        labels.insert(label.to_string(), s.clone());
        s
    }

    /// The served database (for reads that bypass metrics, e.g. schema
    /// introspection).
    pub fn db(&self) -> &Arc<Database> {
        &self.shared.db
    }

    /// Begin a read-write transaction through the session (admission
    /// control gates its first write per table; commit records latency).
    pub fn begin(&self) -> SessionTxn<'_> {
        SessionTxn {
            session: self,
            txn: Some(self.shared.db.begin()),
            touched: Vec::new(),
        }
    }

    /// A consistent read-only view (not latency-tracked; use
    /// [`Session::query`] for measured work).
    pub fn read_view(&self) -> ReadView {
        self.shared.db.read_view()
    }

    /// Run a read-only query under a fresh view, recording its latency in
    /// the session's query stats and under `label` in the shared registry
    /// (pass a table name or a query id like `"q06"` — the label is the
    /// reporting key).
    pub fn query<T>(&self, label: &str, f: impl FnOnce(&ReadView) -> T) -> T {
        let view = self.shared.db.read_view();
        let t0 = Instant::now();
        let out = f(&view);
        let elapsed = t0.elapsed();
        self.queries.inc();
        self.series.read_latency.record(elapsed);
        self.label(label).read_latency.record(elapsed);
        // slow-query log: a structured trace event keyed by the query
        // label, so the drain can correlate it with the scan's I/O
        if obs::trace::enabled() {
            if let Some(th) = self.shared.slow_query_threshold {
                if elapsed >= th {
                    obs::event!(
                        obs::TraceKind::SlowScan,
                        table: obs::trace::intern(label),
                        dur_ns: elapsed.as_nanos() as u64,
                    );
                }
            }
        }
        out
    }

    /// This session's frozen metrics.
    pub fn metrics(&self) -> SessionMetricsSnapshot {
        let unified = self.shared.db.registry().snapshot();
        MetricsSnapshot::over(self.shared.started.elapsed(), unified)
            .sessions
            .into_iter()
            .find(|s| s.id == self.id)
            .unwrap_or_default()
    }

    /// Admission check for a write to `table` (see [`admission`]): admit,
    /// delay (poking maintenance), or reject with
    /// [`ServerError::Backpressure`].
    fn admit(&self, table: &str) -> Result<(), ServerError> {
        let shared = &self.shared;
        let cfg = &shared.admission;
        let t = shared.db.table(table)?;
        let parts = t.partitions().len();
        let budget = t.options().checkpoint_threshold_bytes.saturating_mul(parts);
        let (soft, hard) = cfg.limits(budget);
        let mut bytes = t.delta_bytes();
        if bytes <= soft {
            return Ok(());
        }
        // over the soft limit: charge a delay, wake maintenance, and give
        // it up to `max_delay` to drain the table under us
        self.series.delays.inc();
        self.label(table).delays.inc();
        let trace_table = obs::trace::enabled().then(|| obs::trace::intern(table));
        let t0 = Instant::now();
        let waited = loop {
            shared.poke_maintenance();
            if t0.elapsed() >= cfg.max_delay {
                break false;
            }
            std::thread::sleep(cfg.retry_tick.min(cfg.max_delay));
            bytes = t.delta_bytes();
            if bytes <= soft {
                break true;
            }
        };
        if let Some(t) = trace_table {
            obs::event!(
                obs::TraceKind::AdmissionDelay,
                table: t,
                dur_ns: t0.elapsed().as_nanos() as u64,
                a: bytes as u64,
                b: soft as u64,
            );
        }
        if waited {
            return Ok(());
        }
        if bytes > hard {
            self.series.rejects.inc();
            self.label(table).rejects.inc();
            if let Some(t) = trace_table {
                obs::event!(
                    obs::TraceKind::AdmissionReject,
                    table: t,
                    a: bytes as u64,
                    b: hard as u64,
                );
            }
            return Err(ServerError::Backpressure {
                table: table.to_string(),
                delta_bytes: bytes,
                limit_bytes: hard,
            });
        }
        // between soft and hard: admitted after the delay (backpressure
        // smooths, the hard limit walls)
        Ok(())
    }
}

/// A transaction opened through a [`Session`]: the engine's [`DbTxn`]
/// plus admission control on the first write per table and commit/abort
/// metrics. Dropping without committing aborts (and counts an abort).
pub struct SessionTxn<'s> {
    session: &'s Session,
    txn: Option<DbTxn<'s>>,
    touched: Vec<String>,
}

impl<'s> SessionTxn<'s> {
    fn txn_mut(&mut self) -> &mut DbTxn<'s> {
        self.txn.as_mut().expect("transaction still open")
    }

    /// Declare a write to `table`: runs the admission check once per
    /// table per transaction. The typed write wrappers call this
    /// implicitly; callers staging through [`SessionTxn::raw`] call it
    /// themselves.
    pub fn touch(&mut self, table: &str) -> Result<(), ServerError> {
        if self.touched.iter().any(|t| t == table) {
            return Ok(());
        }
        self.session.admit(table)?;
        self.touched.push(table.to_string());
        Ok(())
    }

    /// The underlying engine transaction, for statements without a
    /// wrapper. Pair writes with [`SessionTxn::touch`] so admission
    /// control and per-table metrics still see them.
    pub fn raw(&mut self) -> &mut DbTxn<'s> {
        self.txn_mut()
    }

    /// Batched columnar append (see [`DbTxn::append`]).
    pub fn append(&mut self, table: &str, rows: Batch) -> Result<usize, ServerError> {
        self.touch(table)?;
        Ok(self.txn_mut().append(table, rows)?)
    }

    /// One-row insert (see [`DbTxn::insert`]).
    pub fn insert(&mut self, table: &str, tuple: Tuple) -> Result<(), ServerError> {
        self.touch(table)?;
        Ok(self.txn_mut().insert(table, tuple)?)
    }

    /// Positional batch delete (see [`DbTxn::delete_rids`]).
    pub fn delete_rids(&mut self, table: &str, rids: &[u64]) -> Result<usize, ServerError> {
        self.touch(table)?;
        Ok(self.txn_mut().delete_rids(table, rids)?)
    }

    /// Positional single-column update (see [`DbTxn::update_col`]).
    pub fn update_col(
        &mut self,
        table: &str,
        rids: &[u64],
        col: usize,
        values: ColumnVec,
    ) -> Result<usize, ServerError> {
        self.touch(table)?;
        Ok(self.txn_mut().update_col(table, rids, col, values)?)
    }

    /// Predicate delete (see [`DbTxn::delete_where`]).
    pub fn delete_where(&mut self, table: &str, pred: Expr) -> Result<usize, ServerError> {
        self.touch(table)?;
        Ok(self.txn_mut().delete_where(table, pred)?)
    }

    /// Range-restricted predicate delete (see [`DbTxn::delete_where_ranged`]).
    pub fn delete_where_ranged(
        &mut self,
        table: &str,
        pred: Expr,
        bounds: ScanBounds,
    ) -> Result<usize, ServerError> {
        self.touch(table)?;
        Ok(self.txn_mut().delete_where_ranged(table, pred, bounds)?)
    }

    /// Predicate update (see [`DbTxn::update_where`]).
    pub fn update_where(
        &mut self,
        table: &str,
        pred: Expr,
        sets: Vec<(usize, Expr)>,
    ) -> Result<usize, ServerError> {
        self.touch(table)?;
        Ok(self.txn_mut().update_where(table, pred, sets)?)
    }

    /// Scan under the transaction's own view (reads are not gated).
    pub fn scan_with(&self, table: &str, spec: ScanSpec) -> Result<TableScan<'_>, ServerError> {
        Ok(self
            .txn
            .as_ref()
            .expect("transaction still open")
            .scan_with(table, spec)?)
    }

    /// Visible row count under the transaction's view.
    pub fn visible_rows(&self, table: &str) -> Result<u64, ServerError> {
        Ok(self
            .txn
            .as_ref()
            .expect("transaction still open")
            .visible_rows(table)?)
    }

    /// Commit, recording latency per session and per touched table.
    /// Conflicts count as aborts (and conflicts) in the metrics.
    pub fn commit(mut self) -> Result<u64, ServerError> {
        let txn = self.txn.take().expect("transaction still open");
        let session = self.session;
        let t0 = Instant::now();
        match txn.commit() {
            Ok(seq) => {
                let elapsed = t0.elapsed();
                let record = |s: &Series| {
                    s.commits.inc();
                    s.commit_latency.record(elapsed);
                };
                record(&session.series);
                for table in &self.touched {
                    record(&session.label(table));
                }
                Ok(seq)
            }
            Err(e) => {
                let conflict = matches!(
                    e,
                    DbError::Conflict { .. } | DbError::Txn(txn::TxnError::Conflict { .. })
                );
                let record = |s: &Series| {
                    s.aborts.inc();
                    if conflict {
                        s.conflicts.inc();
                    }
                };
                record(&session.series);
                for table in &self.touched {
                    record(&session.label(table));
                }
                Err(e.into())
            }
        }
    }

    /// Abort, discarding all staged updates.
    pub fn abort(mut self) {
        if let Some(txn) = self.txn.take() {
            txn.abort();
            self.session.series.aborts.inc();
        }
    }
}

impl Drop for SessionTxn<'_> {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            txn.abort();
            self.session.series.aborts.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::{Schema, TableMeta, Value, ValueType};
    use engine::{PartitionSpec, TableOptions, UpdatePolicy, ALL_POLICIES};
    use exec::run_to_rows;
    use std::time::Duration;

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", ValueType::Int), ("v", ValueType::Int)])
    }

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
            .collect()
    }

    fn db_with(policy: UpdatePolicy, opts: TableOptions) -> Arc<Database> {
        let db = Arc::new(Database::new());
        db.create_table(
            TableMeta::new("t", schema(), vec![0]),
            opts.with_policy(policy),
            rows(1000),
        )
        .unwrap();
        db
    }

    fn batch(lo: i64, n: i64) -> Batch {
        let rows: Vec<Tuple> = (lo..lo + n)
            .map(|i| vec![Value::Int(i), Value::Int(0)])
            .collect();
        Batch::from_rows(&[ValueType::Int, ValueType::Int], &rows)
    }

    #[test]
    fn sessions_commit_concurrently_and_metrics_accumulate() {
        // the per-table counters are keyed by table name, partitioned or not
        for opts in [
            TableOptions::default(),
            TableOptions::default().with_partitions(PartitionSpec::Count(4)),
        ] {
            let db = db_with(UpdatePolicy::Pdt, opts.clone());
            db.create_table(TableMeta::new("u", schema(), vec![0]), opts, rows(1000))
                .unwrap();
            let server = Server::start(
                db,
                ServerConfig {
                    max_sessions: 4,
                    maintenance: None,
                    ..ServerConfig::default()
                },
            );
            let mut handles = Vec::new();
            for w in 0..4i64 {
                handles.push(
                    server
                        .spawn(&format!("writer-{w}"), move |s| {
                            for i in 0..5i64 {
                                let mut txn = s.begin();
                                for table in ["t", "u"] {
                                    txn.append(table, batch(10_000 + w * 1000 + i * 10, 5))
                                        .unwrap();
                                }
                                txn.commit().unwrap();
                            }
                            s.query("t", |view| {
                                let mut scan = view.scan_with("t", ScanSpec::all()).unwrap();
                                run_to_rows(&mut scan).len()
                            })
                        })
                        .unwrap(),
                );
            }
            for h in handles {
                assert!(h.join().unwrap() >= 1000);
            }
            let m = server.shutdown();
            assert_eq!(m.total_commits(), 20);
            assert_eq!(m.total_queries(), 4);
            // every table a commit wrote saw that commit
            for table in ["t", "u"] {
                let t = m.tables.iter().find(|t| t.name == table).unwrap();
                assert_eq!(t.counters.commits, 20, "{table}");
                assert_eq!(t.commit_latency.as_ref().unwrap().count, 20, "{table}");
            }
            let t = m.tables.iter().find(|t| t.name == "t").unwrap();
            assert_eq!(t.scan_latency.as_ref().unwrap().count, 4);
            assert!(m.commits_per_sec() > 0.0);
        }
    }

    /// Restarting the server must bring back checkpointed state through
    /// the persisted compressed images: the checkpoint's WAL marker stops
    /// replay at the pinned sequence, so the folded commits can only come
    /// back from disk images.
    #[test]
    fn cold_start_restores_checkpointed_state_from_images() {
        let dir = std::env::temp_dir().join(format!("pdt_srv_cold_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("db.wal");
        let images = dir.join("images");
        let register = |db: &Database| {
            db.create_table(
                TableMeta::new("t", schema(), vec![0]),
                TableOptions::default().with_policy(UpdatePolicy::Pdt),
                rows(100),
            )
            .map(|_| ())
        };
        let want = {
            let server = Server::cold_start(
                &wal,
                &images,
                register,
                ServerConfig {
                    maintenance: None,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let s = server.session("writer");
            let mut txn = s.begin();
            txn.append("t", batch(10_000, 5)).unwrap();
            txn.delete_where("t", exec::expr::col(0).lt(exec::expr::lit(10i64)))
                .unwrap();
            txn.commit().unwrap();
            // fold the commit into a persisted image, then one more
            // commit so recovery also replays a WAL tail
            assert!(server.db().checkpoint("t").unwrap());
            let mut txn = s.begin();
            txn.append("t", batch(20_000, 3)).unwrap();
            txn.commit().unwrap();
            let got = s.query("t", |view| {
                run_to_rows(&mut view.scan_with("t", ScanSpec::all()).unwrap())
            });
            server.shutdown();
            got
        };
        let server = Server::cold_start(
            &wal,
            &images,
            register,
            ServerConfig {
                maintenance: None,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let got = server.session("reader").query("t", |view| {
            run_to_rows(&mut view.scan_with("t", ScanSpec::all()).unwrap())
        });
        assert_eq!(got, want, "cold start diverged from pre-restart state");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_saturation_reports_busy() {
        let db = db_with(UpdatePolicy::Pdt, TableOptions::default());
        let server = Server::start(
            db,
            ServerConfig {
                max_sessions: 1,
                maintenance: None,
                ..ServerConfig::default()
            },
        );
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let h = server
            .spawn("blocker", move |_| {
                block_rx.recv().ok();
            })
            .unwrap();
        let err = loop {
            // the worker may not have dequeued yet; Busy is based on
            // in-flight reservations, so the second spawn must fail
            match server.spawn("rejected", |_| ()) {
                Err(e) => break e,
                Ok(extra) => {
                    // raced with the first job finishing? impossible: it
                    // blocks on the channel — only reachable if reserve
                    // raced; drain and retry
                    extra.join().unwrap();
                }
            }
        };
        assert!(matches!(err, ServerError::Busy { limit: 1 }), "{err}");
        block_tx.send(()).unwrap();
        h.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn spawned_panic_is_contained() {
        let db = db_with(UpdatePolicy::Pdt, TableOptions::default());
        let server = Server::start(
            db,
            ServerConfig {
                max_sessions: 2,
                maintenance: None,
                ..ServerConfig::default()
            },
        );
        let h = server.spawn("doomed", |_| panic!("boom")).unwrap();
        match h.join() {
            Err(ServerError::SessionPanicked(m)) => assert!(m.contains("boom")),
            other => panic!("expected SessionPanicked, got {other:?}"),
        }
        // the pool worker survived the panic
        let h = server.spawn("fine", |_| 7).unwrap();
        assert_eq!(h.join().unwrap(), 7);
        server.shutdown();
    }

    #[test]
    fn conflict_counts_as_abort_and_conflict() {
        let db = db_with(UpdatePolicy::Pdt, TableOptions::default());
        let server = Server::start(
            db,
            ServerConfig {
                maintenance: None,
                ..ServerConfig::default()
            },
        );
        let s = server.session("clasher");
        let mut a = s.begin();
        let mut b = s.begin();
        a.update_col("t", &[5], 1, ColumnVec::Int(vec![1])).unwrap();
        b.update_col("t", &[5], 1, ColumnVec::Int(vec![2])).unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, ServerError::Db(_)), "{err}");
        let m = s.metrics();
        assert_eq!(m.counters.commits, 1);
        assert_eq!(m.counters.aborts, 1);
        assert_eq!(m.counters.conflicts, 1);
        // dropped-without-commit counts an abort
        {
            let mut c = s.begin();
            c.append("t", batch(50_000, 3)).unwrap();
        }
        assert_eq!(s.metrics().counters.aborts, 2);
        server.shutdown();
    }

    /// Satellite: a session that sustains writes with maintenance disabled
    /// must get delayed/rejected (not grow the delta without bound), and
    /// resume once a checkpoint drains the table — across all policies.
    #[test]
    fn backpressure_rejects_then_recovers_after_checkpoint() {
        for policy in ALL_POLICIES {
            // tiny budget so a few appends cross it; no maintenance
            let opts = TableOptions {
                checkpoint_threshold_bytes: 4 << 10,
                flush_threshold_bytes: 1 << 10,
                ..TableOptions::default()
            };
            let db = db_with(policy, opts);
            let server = Server::start(
                db.clone(),
                ServerConfig {
                    maintenance: None,
                    admission: AdmissionConfig {
                        soft_multiple: 1.0,
                        hard_multiple: 2.0,
                        max_delay: Duration::from_millis(4),
                        retry_tick: Duration::from_millis(1),
                    },
                    ..ServerConfig::default()
                },
            );
            let s = server.session("firehose");
            let mut rejected = None;
            let mut next = 100_000i64;
            for _ in 0..10_000 {
                let mut txn = s.begin();
                match txn.append("t", batch(next, 64)) {
                    Ok(_) => {
                        next += 64;
                        txn.commit().unwrap();
                    }
                    Err(e) => {
                        rejected = Some(e);
                        break;
                    }
                }
            }
            let err = rejected
                .unwrap_or_else(|| panic!("{policy:?}: sustained writes were never backpressured"));
            assert!(
                matches!(err, ServerError::Backpressure { .. }),
                "{policy:?}: {err}"
            );
            let hard = (4096 * 2) as usize;
            let bytes = db.delta_bytes("t").unwrap();
            // the delta stopped growing near the hard limit instead of
            // absorbing all 10k batches (the "not OOM" half); generous
            // slack for one admitted transaction's overshoot
            assert!(
                bytes < hard * 16,
                "{policy:?}: delta grew to {bytes} despite backpressure"
            );
            let m = s.metrics();
            assert!(m.counters.delays >= 1, "{policy:?}: no delay recorded");
            assert!(m.counters.rejects >= 1, "{policy:?}: no reject recorded");
            // a checkpoint drains the table; writes resume
            db.checkpoint("t").unwrap();
            let mut txn = s.begin();
            txn.append("t", batch(next, 8))
                .unwrap_or_else(|e| panic!("{policy:?}: write after checkpoint: {e}"));
            txn.commit().unwrap();
            server.shutdown();
        }
    }

    /// The final snapshot is frozen after the scheduler's workers joined,
    /// so a step in flight at shutdown is in it: it equals what the
    /// database reports afterwards on every shared series.
    #[test]
    fn shutdown_snapshot_is_taken_after_the_join() {
        let opts = TableOptions::default()
            .with_flush_threshold(0)
            .with_checkpoint_threshold(512);
        let db = db_with(UpdatePolicy::Pdt, opts);
        let server = Server::start(
            db.clone(),
            ServerConfig {
                maintenance: Some(MaintenanceConfig::with_tick(Duration::from_millis(1))),
                admission: AdmissionConfig::disabled(),
                ..ServerConfig::default()
            },
        );
        let s = server.session("writer");
        for i in 0..50 {
            let mut txn = s.begin();
            txn.append("t", batch(10_000 + i * 8, 8)).unwrap();
            txn.commit().unwrap();
        }
        // the scheduler checkpoints on its own tick: wait for one to land
        // rather than race it to the shutdown
        let deadline = Instant::now() + Duration::from_secs(5);
        while db.metrics().value("maintenance.checkpoints") <= Some(0) {
            assert!(
                Instant::now() < deadline,
                "no background checkpoint within 5 s"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let fin = server.shutdown();
        assert!(fin.unified.value("maintenance.checkpoints") > Some(0));
        assert_eq!(fin.sessions[0].counters.commits, 50);
        let shared = |m: obs::MetricsSnapshot| -> Vec<_> {
            m.metrics
                .into_iter()
                .filter(|e| !matches!(e.name.as_str(), "server.uptime_ns" | "obs.trace.dropped"))
                .collect()
        };
        assert_eq!(shared(fin.unified), shared(db.metrics()));
    }

    #[test]
    fn query_labels_key_the_shared_registry() {
        let db = db_with(UpdatePolicy::Pdt, TableOptions::default());
        let server = Server::start(
            db,
            ServerConfig {
                maintenance: None,
                ..ServerConfig::default()
            },
        );
        let s = server.session("reader");
        for _ in 0..3 {
            s.query("q06", |view| {
                let mut scan = view
                    .scan_with(
                        "t",
                        ScanSpec::all().key_range(vec![Value::Int(0)], vec![Value::Int(9)]),
                    )
                    .unwrap();
                run_to_rows(&mut scan).len()
            });
        }
        let m = server.metrics();
        let q = m.tables.iter().find(|t| t.name == "q06").unwrap();
        assert_eq!(q.scan_latency.as_ref().unwrap().count, 3);
        assert_eq!(s.metrics().queries, 3);
        server.shutdown();
    }
}
