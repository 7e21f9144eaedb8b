//! Background maintenance: threshold-driven flush and checkpointing as a
//! scheduled activity instead of a foreground stall.
//!
//! The paper's layered design (§3.3, Algorithm 7) exists so that
//! Write-PDT→Read-PDT propagation and Read-PDT→stable checkpointing can
//! run *while queries keep scanning a consistent snapshot*. The
//! [`MaintenanceScheduler`] realises that: it owns worker threads that
//! sweep every **partition** of every table of an
//! [`Arc<Database>`](crate::Database) and
//!
//! * **flush** a partition's write-optimised delta layer into its
//!   read-optimised one once it exceeds the table's
//!   [`flush_threshold_bytes`](crate::TableOptions::flush_threshold_bytes)
//!   (the paper's Propagate policy — keep the Write-PDT CPU-cache-sized),
//! * **maintain** a partition's stable slice with one range step of the
//!   single pin → merge → install lifecycle
//!   ([`Database::compact_range`](crate::Database::compact_range)) per
//!   sweep: over every block — a checkpoint — once the partition's
//!   committed delta exceeds
//!   [`checkpoint_threshold_bytes`](crate::TableOptions::checkpoint_threshold_bytes),
//!   else over the [`crate::compaction`] planner's best-scoring block
//!   range when the table enables heat-driven incremental compaction
//!   ([`crate::TableOptions::compaction`]), folding hot delta without
//!   rewriting the partition's cold blocks.
//!
//! Budgets are **per partition**: a range-partitioned table is maintained
//! slice by slice, and when several partitions go over budget in one
//! sweep their checkpoints run **in parallel** on scoped workers — the
//! lifecycle serializes per *partition* (the per-partition maintenance
//! mutex), not per table, so partition merges never contend with each
//! other. Neither operation blocks readers or writers: flushes are
//! view-preserving `Arc` swaps, and a maintenance step pins its delta
//! under the commit guard, rewrites the slice entirely off-lock, and
//! re-takes the guard only for the final swap.
//!
//! ## Lifecycle
//!
//! [`MaintenanceScheduler::start`] spawns the workers; they tick at the
//! configured cadence (or immediately on [`poke`](MaintenanceScheduler::poke)).
//! [`drain`](MaintenanceScheduler::drain) synchronously flushes and
//! checkpoints every partition to a clean state on the calling thread —
//! typically right before [`shutdown`](MaintenanceScheduler::shutdown),
//! which signals the workers and joins them. Dropping the scheduler shuts
//! it down implicitly (without the drain).
//!
//! ## Observability
//!
//! [`MaintenanceScheduler::stats`] reports global counters plus
//! per-partition ones ([`MaintenancePartitionStats`]: flushes,
//! checkpoints, and delta bytes retired per partition), and
//! [`MaintenanceStats`] implements `Display` so a test or example can
//! print the scheduler's work distribution directly.

use crate::{CompactionReport, Database, DbError, MaintainTarget};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Scheduler cadence knobs. Byte budgets are per-partition
/// ([`crate::TableOptions`]); the config only decides how often the
/// workers look.
#[derive(Debug, Clone, Copy)]
pub struct MaintenanceConfig {
    /// How often the flush worker sweeps the partitions. Default 2 ms.
    pub flush_tick: Duration,
    /// How often the checkpoint/compaction worker sweeps the partitions.
    /// Default 20 ms.
    pub checkpoint_tick: Duration,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            flush_tick: Duration::from_millis(2),
            checkpoint_tick: Duration::from_millis(20),
        }
    }
}

impl MaintenanceConfig {
    /// Same tick for every worker — test convenience.
    pub fn with_tick(tick: Duration) -> Self {
        MaintenanceConfig {
            flush_tick: tick,
            checkpoint_tick: tick,
        }
    }
}

/// One partition's maintenance counters (monotonic since `start`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintenancePartitionStats {
    /// The table the partition belongs to.
    pub table: String,
    /// Partition index within the table.
    pub partition: usize,
    /// Write→Read flushes of this partition.
    pub flushes: u64,
    /// Checkpoints of this partition that produced (or retired) state.
    pub checkpoints: u64,
    /// Delta bytes retired by this partition's checkpoints (the drop in
    /// its committed delta footprint across each, summed).
    pub bytes: u64,
    /// Sub-partition compaction steps (merge units) executed.
    pub compactions: u64,
    /// Stable blocks those steps rewrote.
    pub compaction_blocks_merged: u64,
    /// Stable blocks those steps left untouched (reused).
    pub compaction_blocks_reused: u64,
    /// Stable bytes the steps did *not* rewrite relative to
    /// whole-partition checkpoints in their place.
    pub compaction_bytes_saved: u64,
}

/// Counters published by the scheduler (monotonic since `start`), global
/// plus per partition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Write→Read flushes performed (all partitions).
    pub flushes: u64,
    /// Checkpoints that produced (or retired) state (all partitions).
    pub checkpoints: u64,
    /// Sub-partition compaction steps executed (all partitions).
    pub compactions: u64,
    /// Stable blocks compaction steps rewrote (all partitions).
    pub compaction_blocks_merged: u64,
    /// Stable blocks compaction steps left untouched (all partitions).
    pub compaction_blocks_reused: u64,
    /// Stable bytes compaction avoided rewriting, versus whole-partition
    /// checkpoints in place of the steps (all partitions).
    pub compaction_bytes_saved: u64,
    /// Stable bytes (re)written by checkpoints and compaction steps —
    /// the write-amplification numerator.
    pub stable_bytes_written: u64,
    /// Delta bytes those operations retired out of the differential
    /// layers — the write-amplification denominator.
    pub delta_bytes_retired: u64,
    /// Maintenance operations that returned an error (recorded, never
    /// propagated — the scheduler keeps running).
    pub errors: u64,
    /// Per-partition distribution, sorted by (table, partition). Only
    /// partitions that did work appear.
    pub partitions: Vec<MaintenancePartitionStats>,
}

impl fmt::Display for MaintenanceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "maintenance: {} flushes, {} checkpoints, {} compaction steps \
             ({} blocks merged / {} reused, {} stable bytes saved), {} errors",
            self.flushes,
            self.checkpoints,
            self.compactions,
            self.compaction_blocks_merged,
            self.compaction_blocks_reused,
            self.compaction_bytes_saved,
            self.errors
        )?;
        for p in &self.partitions {
            write!(
                f,
                "\n  {}#{}: {} flushes, {} checkpoints, {} delta bytes retired",
                p.table, p.partition, p.flushes, p.checkpoints, p.bytes
            )?;
            if p.compactions > 0 {
                write!(
                    f,
                    ", {} compactions ({}/{} blocks, {} bytes saved)",
                    p.compactions,
                    p.compaction_blocks_merged,
                    p.compaction_blocks_reused,
                    p.compaction_bytes_saved
                )?;
            }
        }
        Ok(())
    }
}

#[derive(Default, Clone, Copy)]
struct PartCounts {
    flushes: u64,
    checkpoints: u64,
    bytes: u64,
    compactions: u64,
    compaction_blocks_merged: u64,
    compaction_blocks_reused: u64,
    compaction_bytes_saved: u64,
}

struct Shared {
    db: Arc<Database>,
    cfg: MaintenanceConfig,
    shutdown: AtomicBool,
    /// Wakes sleeping workers early (shutdown or poke).
    wake: Mutex<u64>,
    wake_cv: Condvar,
    flushes: AtomicU64,
    checkpoints: AtomicU64,
    compactions: AtomicU64,
    compaction_blocks_merged: AtomicU64,
    compaction_blocks_reused: AtomicU64,
    compaction_bytes_saved: AtomicU64,
    stable_bytes_written: AtomicU64,
    delta_bytes_retired: AtomicU64,
    errors: AtomicU64,
    per_part: Mutex<HashMap<(String, usize), PartCounts>>,
    last_error: Mutex<Option<String>>,
}

enum Role {
    Flush,
    Maintain,
}

/// What one partition operation did, for [`Shared::record`].
enum Work {
    Flush,
    /// One range step of the maintenance lifecycle, with the drop in the
    /// partition's structural delta footprint across it (measured like
    /// the checkpoint budget; concurrent commits can only undercount it).
    Step(CompactionReport, u64),
}

impl Shared {
    /// Sleep until the tick elapses, a poke arrives, or shutdown.
    fn wait(&self, tick: Duration) {
        let guard = self.wake.lock().expect("scheduler wake lock");
        let seen = *guard;
        let _unused = self
            .wake_cv
            .wait_timeout_while(guard, tick, |gen| {
                *gen == seen && !self.shutdown.load(Ordering::Acquire)
            })
            .expect("scheduler wake lock");
    }

    /// Record one partition operation's outcome. A step that kept no block
    /// is a checkpoint, any other a compaction; both price their rewrite
    /// from the step's own report.
    fn record(&self, table: &str, partition: usize, result: Result<Option<Work>, DbError>) {
        let work = match result {
            Ok(Some(work)) => work,
            Ok(None) => return,
            // a table dropped mid-sweep is not an error
            Err(DbError::UnknownTable(_)) => return,
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                *self.last_error.lock().expect("scheduler error lock") = Some(e.to_string());
                return;
            }
        };
        let mut per = self.per_part.lock().expect("scheduler per-part lock");
        let c = per.entry((table.to_string(), partition)).or_default();
        match work {
            Work::Flush => {
                self.flushes.fetch_add(1, Ordering::Relaxed);
                c.flushes += 1;
            }
            Work::Step(report, retired) => {
                self.stable_bytes_written
                    .fetch_add(report.stable_bytes_written, Ordering::Relaxed);
                self.delta_bytes_retired
                    .fetch_add(retired, Ordering::Relaxed);
                if report.blocks_reused == 0 {
                    self.checkpoints.fetch_add(1, Ordering::Relaxed);
                    c.checkpoints += 1;
                    c.bytes += retired;
                } else {
                    let saved = report.stable_bytes_saved();
                    self.compactions.fetch_add(1, Ordering::Relaxed);
                    self.compaction_blocks_merged
                        .fetch_add(report.blocks_merged, Ordering::Relaxed);
                    self.compaction_blocks_reused
                        .fetch_add(report.blocks_reused, Ordering::Relaxed);
                    self.compaction_bytes_saved
                        .fetch_add(saved, Ordering::Relaxed);
                    c.compactions += 1;
                    c.compaction_blocks_merged += report.blocks_merged;
                    c.compaction_blocks_reused += report.blocks_reused;
                    c.compaction_bytes_saved += saved;
                }
            }
        }
    }

    /// Run one maintenance step of a partition.
    fn step(&self, table: &str, p: usize, target: MaintainTarget) -> Result<Option<Work>, DbError> {
        let delta_bytes = || self.db.delta_bytes_partition(table, p).unwrap_or(0) as u64;
        let before = delta_bytes();
        let report = self
            .db
            .maintain_range(table, p, target, &mut None::<fn()>)?;
        Ok(report.map(|r| Work::Step(r, before.saturating_sub(delta_bytes()))))
    }

    /// One sweep over every partition for the given role. Over-budget
    /// checkpoints found in one sweep run in parallel (bounded by the
    /// machine's parallelism): the pin/merge/install protocol serializes
    /// per partition, so distinct partitions' merges are independent.
    fn pass(&self, role: &Role) {
        let mut due: Vec<(String, usize)> = Vec::new();
        for table in self.db.table_names() {
            let Ok(opts) = self.db.options(&table) else {
                continue;
            };
            let Ok(nparts) = self.db.partition_count(&table) else {
                continue;
            };
            for p in 0..nparts {
                match role {
                    Role::Flush => {
                        let r =
                            self.db
                                .maybe_flush_partition(&table, p, opts.flush_threshold_bytes);
                        self.record(&table, p, r.map(|f| f.then_some(Work::Flush)));
                    }
                    Role::Maintain => {
                        let bytes = self.db.delta_bytes_partition(&table, p).unwrap_or(0);
                        if bytes > opts.checkpoint_threshold_bytes {
                            due.push((table.clone(), p));
                        } else if opts.compaction.enabled {
                            // plans against the heat map; a no-op when
                            // nothing scores over the floors
                            self.record(&table, p, self.step(&table, p, MaintainTarget::Planned));
                        }
                    }
                }
            }
        }
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(due.len());
        if workers <= 1 {
            for (table, p) in &due {
                self.record(table, *p, self.step(table, *p, MaintainTarget::All));
            }
        } else {
            std::thread::scope(|s| {
                for chunk in 0..workers {
                    let due = &due;
                    s.spawn(move || {
                        for (table, p) in due.iter().skip(chunk).step_by(workers) {
                            self.record(table, *p, self.step(table, *p, MaintainTarget::All));
                        }
                    });
                }
            });
        }
    }

    fn run(&self, role: Role) {
        let tick = match role {
            Role::Flush => self.cfg.flush_tick,
            Role::Maintain => self.cfg.checkpoint_tick,
        };
        while !self.shutdown.load(Ordering::Acquire) {
            self.pass(&role);
            self.wait(tick);
        }
    }
}

/// Owns the background maintenance workers of one database.
pub struct MaintenanceScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl MaintenanceScheduler {
    /// Spawn the two workers over `db`: one flushing write layers, one
    /// running checkpoint/compaction steps.
    pub fn start(db: Arc<Database>, cfg: MaintenanceConfig) -> Self {
        let shared = Arc::new(Shared {
            db,
            cfg,
            shutdown: AtomicBool::new(false),
            wake: Mutex::new(0),
            wake_cv: Condvar::new(),
            flushes: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compaction_blocks_merged: AtomicU64::new(0),
            compaction_blocks_reused: AtomicU64::new(0),
            compaction_bytes_saved: AtomicU64::new(0),
            stable_bytes_written: AtomicU64::new(0),
            delta_bytes_retired: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            per_part: Mutex::new(HashMap::new()),
            last_error: Mutex::new(None),
        });
        let workers = [Role::Flush, Role::Maintain]
            .into_iter()
            .map(|role| {
                let shared = shared.clone();
                let name = match role {
                    Role::Flush => "maint-flush",
                    Role::Maintain => "maint-checkpoint",
                };
                std::thread::Builder::new()
                    .name(name.to_string())
                    .spawn(move || shared.run(role))
                    .expect("spawn maintenance worker")
            })
            .collect();
        MaintenanceScheduler { shared, workers }
    }

    /// Wake both workers for an immediate sweep.
    pub fn poke(&self) {
        let mut gen = self.shared.wake.lock().expect("scheduler wake lock");
        *gen += 1;
        drop(gen);
        self.shared.wake_cv.notify_all();
    }

    /// Snapshot of the scheduler's counters (global + per partition).
    pub fn stats(&self) -> MaintenanceStats {
        let per = self
            .shared
            .per_part
            .lock()
            .expect("scheduler per-part lock");
        let mut partitions: Vec<MaintenancePartitionStats> = per
            .iter()
            .map(|((table, partition), c)| MaintenancePartitionStats {
                table: table.clone(),
                partition: *partition,
                flushes: c.flushes,
                checkpoints: c.checkpoints,
                bytes: c.bytes,
                compactions: c.compactions,
                compaction_blocks_merged: c.compaction_blocks_merged,
                compaction_blocks_reused: c.compaction_blocks_reused,
                compaction_bytes_saved: c.compaction_bytes_saved,
            })
            .collect();
        partitions.sort_by(|a, b| (&a.table, a.partition).cmp(&(&b.table, b.partition)));
        MaintenanceStats {
            flushes: self.shared.flushes.load(Ordering::Relaxed),
            checkpoints: self.shared.checkpoints.load(Ordering::Relaxed),
            compactions: self.shared.compactions.load(Ordering::Relaxed),
            compaction_blocks_merged: self.shared.compaction_blocks_merged.load(Ordering::Relaxed),
            compaction_blocks_reused: self.shared.compaction_blocks_reused.load(Ordering::Relaxed),
            compaction_bytes_saved: self.shared.compaction_bytes_saved.load(Ordering::Relaxed),
            stable_bytes_written: self.shared.stable_bytes_written.load(Ordering::Relaxed),
            delta_bytes_retired: self.shared.delta_bytes_retired.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            partitions,
        }
    }

    /// The last maintenance error, if any (sticky).
    pub fn last_error(&self) -> Option<String> {
        self.shared
            .last_error
            .lock()
            .expect("scheduler error lock")
            .clone()
    }

    /// Synchronously flush and checkpoint every partition to a clean
    /// delta state on the calling thread (the per-partition maintenance
    /// mutex serializes against in-flight worker passes). Errors are
    /// returned — a drain must not silently skip work.
    pub fn drain(&self) -> Result<(), DbError> {
        for table in self.shared.db.table_names() {
            for p in 0..self.shared.db.partition_count(&table)? {
                let flushed = self.shared.db.maybe_flush_partition(&table, p, 0)?;
                self.shared
                    .record(&table, p, Ok(flushed.then_some(Work::Flush)));
                let step = self.shared.step(&table, p, MaintainTarget::All)?;
                self.shared.record(&table, p, Ok(step));
            }
        }
        Ok(())
    }

    /// Signal the workers and join them. Pending passes finish; the
    /// database is left in whatever state the last pass produced (call
    /// [`MaintenanceScheduler::drain`] first for a clean shutdown).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for MaintenanceScheduler {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionSpec, ScanSpec, TableOptions, UpdatePolicy, ALL_POLICIES};
    use columnar::{Schema, TableMeta, Tuple, Value, ValueType};
    use exec::run_to_rows;

    fn db_with_ints(n: i64, policy: UpdatePolicy, opts: TableOptions) -> Arc<Database> {
        let db = Database::new();
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let rows: Vec<Tuple> = (0..n)
            .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
            .collect();
        db.create_table(
            TableMeta::new("t", schema, vec![0]),
            opts.with_policy(policy),
            rows,
        )
        .unwrap();
        Arc::new(db)
    }

    fn image(db: &Database) -> Vec<Tuple> {
        run_to_rows(
            &mut db
                .read_view()
                .scan_with("t", ScanSpec::cols(vec![0, 1]))
                .unwrap(),
        )
    }

    #[test]
    fn scheduler_flushes_and_checkpoints_under_tiny_budgets() {
        for policy in ALL_POLICIES {
            let opts = TableOptions::default()
                .with_block_rows(16)
                .with_flush_threshold(0)
                .with_checkpoint_threshold(0);
            let db = db_with_ints(64, policy, opts);
            let sched = MaintenanceScheduler::start(
                db.clone(),
                MaintenanceConfig::with_tick(Duration::from_millis(1)),
            );
            for i in 0..40 {
                let mut t = db.begin();
                t.insert("t", vec![Value::Int(i * 10 + 1), Value::Int(-i)])
                    .unwrap();
                t.commit().unwrap();
            }
            let before = image(&db);
            assert_eq!(before.len(), 104, "{policy:?}");
            sched.drain().unwrap();
            let stats = sched.stats();
            assert!(
                stats.checkpoints > 0,
                "{policy:?}: zero-budget scheduler must checkpoint, got {stats:?}"
            );
            assert_eq!(stats.errors, 0, "{policy:?}: {:?}", sched.last_error());
            assert_eq!(
                image(&db),
                before,
                "{policy:?}: maintenance changed the image"
            );
            // after the drain the whole image is stable
            let clean = run_to_rows(
                &mut db
                    .clean_view()
                    .scan_with("t", ScanSpec::cols(vec![0, 1]))
                    .unwrap(),
            );
            assert_eq!(clean, before, "{policy:?}");
            sched.shutdown();
        }
    }

    #[test]
    fn partitioned_scheduler_distributes_work_across_partitions() {
        for policy in ALL_POLICIES {
            let opts = TableOptions::default()
                .with_block_rows(16)
                .with_flush_threshold(0)
                .with_checkpoint_threshold(0)
                .with_partitions(PartitionSpec::Count(4));
            let db = db_with_ints(128, policy, opts);
            assert_eq!(db.partition_count("t").unwrap(), 4, "{policy:?}");
            let mut sched = MaintenanceScheduler::start(
                db.clone(),
                MaintenanceConfig::with_tick(Duration::from_millis(1)),
            );
            // writes spread over the whole key range touch every partition
            for i in 0..64 {
                let mut t = db.begin();
                t.insert("t", vec![Value::Int(i * 20 + 1), Value::Int(-i)])
                    .unwrap();
                t.commit().unwrap();
            }
            let before = image(&db);
            sched.drain().unwrap();
            // a worker step the drain waited behind records its checkpoint
            // only after the step returns: join the workers before counting
            sched.stop_and_join();
            let stats = sched.stats();
            assert_eq!(stats.errors, 0, "{policy:?}: {:?}", sched.last_error());
            let touched: std::collections::HashSet<usize> = stats
                .partitions
                .iter()
                .filter(|p| p.checkpoints > 0)
                .map(|p| p.partition)
                .collect();
            assert_eq!(
                touched.len(),
                4,
                "{policy:?}: every partition must checkpoint, got {stats}"
            );
            // bytes retired are tracked per partition
            assert!(
                stats.partitions.iter().any(|p| p.bytes > 0),
                "{policy:?}: {stats}"
            );
            // the Display impl names every partition
            let rendered = stats.to_string();
            for p in 0..4 {
                assert!(rendered.contains(&format!("t#{p}")), "{rendered}");
            }
            assert_eq!(image(&db), before, "{policy:?}");
            sched.shutdown();
        }
    }

    #[test]
    fn churn_run_history_counts_toward_checkpoint_budget() {
        // insert-then-delete churn keeps the row store's net buffer tiny,
        // but every commit retains a run for conflict validation — the
        // checkpoint budget must see that growth (and a checkpoint must
        // retire it), or a long-running churn table leaks unseen
        let db = db_with_ints(8, UpdatePolicy::RowStore, TableOptions::default());
        let clean_bytes = db.delta_bytes("t").unwrap();
        for i in 0..10i64 {
            let mut t = db.begin();
            t.insert("t", vec![Value::Int(i * 10 + 1), Value::Int(0)])
                .unwrap();
            t.commit().unwrap();
            let mut t = db.begin();
            t.delete_where("t", exec::expr::col(0).eq(exec::expr::lit(i * 10 + 1)))
                .unwrap();
            t.commit().unwrap();
        }
        let churned = db.delta_bytes("t").unwrap();
        assert!(
            churned > clean_bytes + 500,
            "run history invisible to the budget: {clean_bytes} -> {churned}"
        );
        assert!(
            db.checkpoint("t").unwrap(),
            "net-zero checkpoint retires runs"
        );
        let retired = db.delta_bytes("t").unwrap();
        assert!(retired < churned / 2, "{churned} -> {retired}");
    }

    #[test]
    fn maintain_worker_compacts_under_budget_and_checkpoints_over_it() {
        for policy in ALL_POLICIES {
            // "t": checkpoint budget high enough that only planned steps
            // can retire delta; heat floors at zero so any staged byte
            // plans a step. "over": compaction off, budget zero — the same
            // worker takes the whole range there.
            let opts = TableOptions::default()
                .with_block_rows(16)
                .with_flush_threshold(0)
                .with_compaction(crate::CompactionConfig {
                    enabled: true,
                    max_unit_blocks: 2,
                    min_delta_bytes: 1,
                    min_score_permille: 0,
                });
            let db = db_with_ints(128, policy, opts);
            db.create_table(
                TableMeta::new(
                    "over",
                    Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]),
                    vec![0],
                ),
                TableOptions::default()
                    .with_policy(policy)
                    .with_block_rows(16)
                    .with_checkpoint_threshold(0),
                (0..64)
                    .map(|i| vec![Value::Int(i), Value::Int(i)])
                    .collect(),
            )
            .unwrap();
            let sched = MaintenanceScheduler::start(
                db.clone(),
                MaintenanceConfig::with_tick(Duration::from_millis(1)),
            );
            // skewed churn: every write lands in one narrow key range
            for i in 0..30 {
                let mut t = db.begin();
                t.insert("t", vec![Value::Int(481 + 2 * i), Value::Int(-i)])
                    .unwrap();
                t.insert("over", vec![Value::Int(1000 + i), Value::Int(-i)])
                    .unwrap();
                t.commit().unwrap();
                sched.poke();
                std::thread::sleep(Duration::from_millis(2));
            }
            let before = image(&db);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while (sched.stats().compactions == 0 || sched.stats().checkpoints == 0)
                && std::time::Instant::now() < deadline
            {
                sched.poke();
                std::thread::sleep(Duration::from_millis(2));
            }
            let stats = sched.stats();
            assert!(
                stats.compactions > 0,
                "{policy:?}: the worker never ran a planned step: {stats}"
            );
            assert!(
                stats.compaction_blocks_reused > 0,
                "{policy:?}: steps reused no blocks: {stats}"
            );
            let by_table = |name: &str| {
                stats
                    .partitions
                    .iter()
                    .find(|p| p.table == name)
                    .cloned()
                    .unwrap_or_default()
            };
            assert_eq!(
                by_table("t").checkpoints,
                0,
                "{policy:?}: under budget, only planned steps: {stats}"
            );
            assert!(
                by_table("over").checkpoints > 0 && by_table("over").compactions == 0,
                "{policy:?}: over budget, the whole range: {stats}"
            );
            // both kinds of step price their rewrite from their own report
            assert!(
                stats.stable_bytes_written > 0 && stats.delta_bytes_retired > 0,
                "{policy:?}: {stats:?}"
            );
            assert_eq!(stats.errors, 0, "{policy:?}: {:?}", sched.last_error());
            assert_eq!(
                image(&db),
                before,
                "{policy:?}: compaction changed the image"
            );
            let rendered = stats.to_string();
            assert!(
                rendered.contains("compaction steps"),
                "Display must surface compaction: {rendered}"
            );
            sched.shutdown();
        }
    }

    #[test]
    fn drop_shuts_the_workers_down() {
        let db = db_with_ints(8, UpdatePolicy::Pdt, TableOptions::default());
        let weak = {
            let sched = MaintenanceScheduler::start(db.clone(), MaintenanceConfig::default());
            sched.poke();
            Arc::downgrade(&sched.shared)
        };
        // workers joined on drop: nothing holds the shared state anymore
        assert_eq!(weak.strong_count(), 0);
    }
}
