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
//!   ([`Partition::maintain`](crate::Partition::maintain)) per
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
//! Maintenance is counted where every step passes, not here:
//! [`Partition::maybe_flush`] and [`Partition::maintain`], the one range
//! step behind checkpoints and compactions, record the `maintenance.*{table,
//! partition}` series (`flushes`, `checkpoints`, `compactions`,
//! `compaction.{blocks_merged, blocks_reused, bytes_saved}`,
//! `stable_bytes_written`, `delta_bytes_retired`) into the database's
//! registry, so a step the scheduler runs and one called inline read the
//! same in [`Database::metrics`]. The scheduler adds only
//! `maintenance.errors` (and keeps [`MaintenanceScheduler::last_error`]).

use crate::{CompactionReport, Database, DbError, MaintainTarget, Partition};
use obs::metrics::{Counter, Histogram};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// One partition's `maintenance.*{table, partition}` series, resolved
/// once at `create_table`. Every flush and every range step records here
/// — the sum over partitions is the table's total by construction.
pub(crate) struct MaintMetrics {
    flushes: Arc<Counter>,
    checkpoints: Arc<Counter>,
    compactions: Arc<Counter>,
    blocks_merged: Arc<Counter>,
    blocks_reused: Arc<Counter>,
    bytes_saved: Arc<Counter>,
    stable_bytes_written: Arc<Counter>,
    delta_bytes_retired: Arc<Counter>,
    /// Per step, in µs: the fold (decode, merge, re-encode into the new
    /// slice) and the image publish — the two stages of the merge span.
    fold_us: Arc<Histogram>,
    publish_us: Arc<Histogram>,
}

impl MaintMetrics {
    pub(crate) fn new(reg: &obs::Registry, table: &str, p: usize) -> Self {
        let p = p.to_string();
        let labels = [("table", table), ("partition", p.as_str())];
        let counter = |name| reg.counter(name, &labels);
        MaintMetrics {
            fold_us: reg.histogram("maintenance.fold_us", &labels),
            publish_us: reg.histogram("maintenance.publish_us", &labels),
            flushes: counter("maintenance.flushes"),
            checkpoints: counter("maintenance.checkpoints"),
            compactions: counter("maintenance.compactions"),
            blocks_merged: counter("maintenance.compaction.blocks_merged"),
            blocks_reused: counter("maintenance.compaction.blocks_reused"),
            bytes_saved: counter("maintenance.compaction.bytes_saved"),
            stable_bytes_written: counter("maintenance.stable_bytes_written"),
            delta_bytes_retired: counter("maintenance.delta_bytes_retired"),
        }
    }

    /// One Write→Read flush.
    pub(crate) fn flushed(&self) {
        self.flushes.inc();
    }

    /// One step's fold took `d`.
    pub(crate) fn folded(&self, d: Duration) {
        self.fold_us.observe(d.as_micros() as u64);
    }

    /// One step's image publish took `d`.
    pub(crate) fn published(&self, d: Duration) {
        self.publish_us.observe(d.as_micros() as u64);
    }

    /// One range step that retired `retired` delta bytes (the structural
    /// drop across it). A step that kept no block is a checkpoint, any
    /// other a compaction; both price their rewrite from their report.
    pub(crate) fn stepped(&self, report: &CompactionReport, retired: u64) {
        self.stable_bytes_written.add(report.stable_bytes_written);
        self.delta_bytes_retired.add(retired);
        if report.blocks_reused == 0 {
            self.checkpoints.inc();
        } else {
            self.compactions.inc();
            self.blocks_merged.add(report.blocks_merged);
            self.blocks_reused.add(report.blocks_reused);
            self.bytes_saved.add(report.stable_bytes_saved());
        }
    }
}

struct Shared {
    db: Arc<Database>,
    cfg: MaintenanceConfig,
    shutdown: AtomicBool,
    /// Wakes sleeping workers early (shutdown or poke).
    wake: Mutex<u64>,
    wake_cv: Condvar,
    /// `maintenance.errors`: operations that failed (recorded, never
    /// propagated — the scheduler keeps running).
    errors: Arc<Counter>,
    last_error: Mutex<Option<String>>,
}

enum Role {
    Flush,
    Maintain,
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

    /// Run one maintenance step of a partition, noting a failure (the
    /// step itself recorded its own `maintenance.*` series).
    fn step(&self, part: &Partition<'_>, target: MaintainTarget) {
        if let Err(e) = part.maintain(target) {
            self.errors.inc();
            *self.last_error.lock().expect("scheduler error lock") = Some(e.to_string());
        }
    }

    /// One sweep over every partition for the given role. Over-budget
    /// checkpoints found in one sweep run in parallel (bounded by the
    /// machine's parallelism): the pin/merge/install protocol serializes
    /// per partition, so distinct partitions' merges are independent.
    fn pass(&self, role: &Role) {
        let tables = self.db.tables();
        let mut due: Vec<Partition<'_>> = Vec::new();
        for table in &tables {
            let opts = table.options();
            for part in table.partitions() {
                match role {
                    Role::Flush => {
                        part.maybe_flush(opts.flush_threshold_bytes);
                    }
                    Role::Maintain => {
                        if part.delta_bytes() > opts.checkpoint_threshold_bytes {
                            due.push(part);
                        } else if opts.compaction.enabled {
                            // plans against the heat map; a no-op when
                            // nothing scores over the floors
                            self.step(&part, MaintainTarget::Planned);
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
            for part in &due {
                self.step(part, MaintainTarget::All);
            }
        } else {
            std::thread::scope(|s| {
                for chunk in 0..workers {
                    let due = &due;
                    s.spawn(move || {
                        for part in due.iter().skip(chunk).step_by(workers) {
                            self.step(part, MaintainTarget::All);
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
            errors: db.registry().counter("maintenance.errors", &[]),
            db,
            cfg,
            shutdown: AtomicBool::new(false),
            wake: Mutex::new(0),
            wake_cv: Condvar::new(),
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
        for table in self.shared.db.tables() {
            for part in table.partitions() {
                part.maybe_flush(0);
                part.maintain(MaintainTarget::All)?;
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

    /// One partition's value of a `maintenance.*` series.
    fn part_value(m: &obs::MetricsSnapshot, name: &str, table: &str, p: usize) -> u64 {
        let p = p.to_string();
        m.get_labeled(name, &[("table", table), ("partition", &p)])
            .and_then(|e| e.value.as_u64())
            .unwrap_or(0)
    }

    /// A table's total of a `maintenance.*` series, over its partitions.
    fn table_value(m: &obs::MetricsSnapshot, name: &str, table: &str) -> u64 {
        m.metrics
            .iter()
            .filter(|e| e.name == name && e.label("table") == Some(table))
            .filter_map(|e| e.value.as_u64())
            .sum()
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
            let m = db.metrics();
            assert!(
                m.value("maintenance.checkpoints") > Some(0),
                "{policy:?}: zero-budget scheduler must checkpoint, got {m}"
            );
            assert_eq!(
                m.value("maintenance.errors"),
                Some(0),
                "{policy:?}: {:?}",
                sched.last_error()
            );
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
            let parts = db.table("t").unwrap().partitions().len();
            assert_eq!(parts, 4, "{policy:?}");
            let sched = MaintenanceScheduler::start(
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
            // a worker step records under the partition's maintenance
            // mutex, which the drain waits behind: nothing to join first
            let m = db.metrics();
            assert_eq!(
                m.value("maintenance.errors"),
                Some(0),
                "{policy:?}: {:?}",
                sched.last_error()
            );
            for p in 0..4 {
                assert!(
                    part_value(&m, "maintenance.checkpoints", "t", p) > 0,
                    "{policy:?}: every partition must checkpoint, got {m}"
                );
            }
            // bytes retired are tracked per partition
            let retired = "maintenance.delta_bytes_retired";
            assert!(
                (0..4).any(|p| part_value(&m, retired, "t", p) > 0),
                "{policy:?}: {m}"
            );
            // the exposition names every partition
            let text = m.to_text();
            for p in 0..4 {
                let series = format!("maintenance_checkpoints{{partition=\"{p}\",table=\"t\"}}");
                assert!(text.contains(&series), "{text}");
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
                    .collect::<Vec<Tuple>>(),
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
            let m = loop {
                let m = db.metrics();
                let done = m.value("maintenance.compactions") > Some(0)
                    && m.value("maintenance.checkpoints") > Some(0);
                if done || std::time::Instant::now() >= deadline {
                    break m;
                }
                sched.poke();
                std::thread::sleep(Duration::from_millis(2));
            };
            assert!(
                m.value("maintenance.compactions") > Some(0),
                "{policy:?}: the worker never ran a planned step: {m}"
            );
            assert!(
                m.value("maintenance.compaction.blocks_reused") > Some(0),
                "{policy:?}: steps reused no blocks: {m}"
            );
            assert_eq!(
                table_value(&m, "maintenance.checkpoints", "t"),
                0,
                "{policy:?}: under budget, only planned steps: {m}"
            );
            assert!(
                table_value(&m, "maintenance.checkpoints", "over") > 0
                    && table_value(&m, "maintenance.compactions", "over") == 0,
                "{policy:?}: over budget, the whole range: {m}"
            );
            // both kinds of step price their rewrite from their own report
            assert!(
                m.value("maintenance.stable_bytes_written") > Some(0)
                    && m.value("maintenance.delta_bytes_retired") > Some(0),
                "{policy:?}: {m}"
            );
            // compaction retirements count per partition too: "t" only
            // ever compacted, and its partition holds what it retired —
            // the distribution sums to the total
            let retired = "maintenance.delta_bytes_retired";
            assert!(part_value(&m, retired, "t", 0) > 0, "{policy:?}: {m}");
            assert_eq!(
                Some(table_value(&m, retired, "t") + table_value(&m, retired, "over")),
                m.value(retired),
                "{policy:?}: {m}"
            );
            assert_eq!(
                m.value("maintenance.errors"),
                Some(0),
                "{policy:?}: {:?}",
                sched.last_error()
            );
            assert_eq!(
                image(&db),
                before,
                "{policy:?}: compaction changed the image"
            );
            sched.shutdown();
        }
    }

    /// Maintenance is counted where the step passes, so steps called
    /// inline count exactly like scheduled ones: one count per flush and
    /// per step. With a scheduler running beside inline calls nothing is
    /// counted twice — every PDT step logs one WAL marker, an independent
    /// tally the step counts must equal.
    #[test]
    fn inline_and_scheduled_steps_are_counted_once() {
        let dir = std::env::temp_dir().join(format!("maint_counted_once_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let db = Arc::new(Database::with_wal(&dir.join("t.wal")).unwrap());
        db.create_table(
            TableMeta::new(
                "t",
                Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]),
                vec![0],
            ),
            TableOptions::default()
                .with_block_rows(16)
                .with_flush_threshold(0)
                .with_checkpoint_threshold(0)
                .with_partitions(PartitionSpec::Count(2))
                .with_compaction(crate::CompactionConfig {
                    enabled: true,
                    max_unit_blocks: 1,
                    min_delta_bytes: 1,
                }),
            (0..128)
                .map(|i| vec![Value::Int(i * 10), Value::Int(i)])
                .collect::<Vec<Tuple>>(),
        )
        .unwrap();
        // eight keys over the whole range: both partitions get delta
        let next = std::sync::atomic::AtomicI64::new(0);
        let commit = || {
            let mut t = db.begin();
            for i in 0..8 {
                let round = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                t.insert(
                    "t",
                    vec![Value::Int(i * 160 + 1 + 2 * round), Value::Int(0)],
                )
                .unwrap();
            }
            t.commit().unwrap();
        };
        let count = |name: &str| db.metrics().value(name).unwrap_or(0);
        assert_eq!(db.metrics().value("maintenance.flushes"), Some(0));

        commit();
        assert!(db.maybe_flush("t", 0).unwrap());
        assert_eq!(count("maintenance.flushes"), 2, "one per partition flushed");
        assert!(!db.maybe_flush("t", 0).unwrap());
        assert_eq!(
            count("maintenance.flushes"),
            2,
            "an empty layer is no flush"
        );
        let report = db
            .compact_partition("t", 0)
            .unwrap()
            .expect("a planned step");
        let m = db.metrics();
        assert_eq!(part_value(&m, "maintenance.compactions", "t", 0), 1);
        assert_eq!(
            m.value("maintenance.compaction.blocks_reused"),
            Some(report.blocks_reused)
        );
        assert_eq!(m.value("maintenance.checkpoints"), Some(0));
        commit();
        assert!(db.checkpoint("t").unwrap());
        let m = db.metrics();
        for p in 0..2 {
            assert_eq!(part_value(&m, "maintenance.checkpoints", "t", p), 1);
        }
        assert!(m.value("maintenance.delta_bytes_retired") > Some(0));
        let steps = |m: &obs::MetricsSnapshot| {
            m.value("maintenance.checkpoints").unwrap_or(0)
                + m.value("maintenance.compactions").unwrap_or(0)
        };
        assert_eq!(Some(steps(&m)), m.value("db.wal.checkpoints"));

        // the scheduler and inline checkpoints, side by side
        let sched = MaintenanceScheduler::start(
            db.clone(),
            MaintenanceConfig::with_tick(Duration::from_millis(1)),
        );
        for _ in 0..20 {
            commit();
            db.checkpoint("t").unwrap();
            sched.poke();
        }
        sched.drain().unwrap();
        sched.shutdown();
        let m = db.metrics();
        assert_eq!(m.value("maintenance.errors"), Some(0));
        assert!(steps(&m) > 3, "{m}");
        assert_eq!(Some(steps(&m)), m.value("db.wal.checkpoints"), "{m}");
        let _ = std::fs::remove_dir_all(&dir);
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
