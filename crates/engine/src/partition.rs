//! Horizontal range partitioning — the layer between [`crate::Database`]
//! and [`crate::DeltaStore`].
//!
//! A PDT indexes updates against **one** stable image, so scaling a table
//! past a single image means splitting it by sort-key range: each
//! partition owns its own stable slice *and* its own update structure
//! (any [`crate::UpdatePolicy`]), exactly how VectorWise deploys PDTs
//! over partitioned tables. Everything positional stays per-partition —
//! SIDs, RIDs, checkpoints, conflict footprints — while the engine keeps
//! the global positional API intact by mapping visible RIDs through the
//! partitions' cumulative row counts:
//!
//! ```text
//! Database
//!   └─ table ─ splits: [k₁, k₂, …]          (sort-key split points)
//!        ├─ partition 0  (keys < k₁)        StableTable ∘ DeltaStore
//!        ├─ partition 1  (k₁ ≤ keys < k₂)   StableTable ∘ DeltaStore
//!        └─ partition 2  (k₂ ≤ keys)        StableTable ∘ DeltaStore
//! ```
//!
//! The router (`route`) sends every write to the partition
//! owning its sort key (a split point belongs to the partition *above*
//! it); reads union the partitions in split order, re-basing each
//! partition's locally consecutive RIDs so scans emit globally
//! consecutive ones ([`exec::TableScan::new`]). Commits validate and
//! WAL each touched partition's footprint independently, and maintenance
//! is a method of the partition — [`crate::Partition::maybe_flush`] and
//! [`crate::Partition::maintain`], reached through
//! [`crate::Database::table`] — so the scheduler flushes and checkpoints
//! partitions, not tables, and maintenance parallelizes across them.
//!
//! The state lives where it is owned: a table's entry holds its options,
//! schema, split points and partitions; each partition holds its own slot
//! for its stable slice, its update structure, heat map, image provenance
//! and maintenance mutex. Only `create_table` writes the database's map.
//!
//! [`PartitionSpec::None`] keeps the single-partition layout and is
//! behaviorally identical to the pre-partitioning engine.

use crate::compaction::PartitionHeat;
use crate::delta::DeltaStore;
use crate::maintenance::MaintMetrics;
use crate::{DbError, TableOptions};
use columnar::value::sk_of;
use columnar::{BlockProvenance, IoTracker, Schema, StableTable, Tuple, Value};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// How a table is range-partitioned, chosen at
/// [`crate::Database::create_table`] time through
/// [`TableOptions::partitions`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PartitionSpec {
    /// One partition — today's behavior, the default.
    #[default]
    None,
    /// Split the bulk-loaded rows into `n` ranges of roughly equal row
    /// count (split points drawn from the loaded keys; an empty or
    /// near-empty load degrades to fewer partitions).
    Count(usize),
    /// Explicit sort-key split points, strictly ascending. `k` points
    /// make `k + 1` partitions; partitions may be empty. Each point is a
    /// non-empty prefix of the sort key, and a key equal to a point
    /// routes to the partition above it.
    SplitPoints(Vec<Vec<Value>>),
}

/// One partition's state: its stable slice, its update structure, and
/// the mutex serializing its maintenance (flush vs range step) — commits
/// and reads never take it. The mutex guards the partition's
/// `maintenance.*` handles, so a step records what it did while it still
/// holds it.
pub(crate) struct PartitionEntry {
    /// The partition's own slot for its stable slice. Swapped only under
    /// the commit guard — by a maintenance step, which also holds `maint`,
    /// or by recovery's image adoption; views and transactions capture it
    /// under the commit guard, so a capture is always one consistent cut.
    stable: RwLock<Arc<StableTable>>,
    pub delta: Arc<dyn DeltaStore>,
    pub maint: Mutex<MaintMetrics>,
    /// Per-block delta/scan heat of the current stable slice (reset on
    /// every stable swap) — the compaction planner's input.
    pub heat: Arc<PartitionHeat>,
    /// The database's shared I/O counters, scoped to report block reads
    /// to `heat`. Built once here so every scan path (view, transaction)
    /// charges the same tracker.
    pub heat_io: IoTracker,
    /// Provenance of the current stable slice's blocks in the image
    /// store: `(manifest seq, block index)` of the image each block's
    /// bytes were *written* in. `None` when no image covers the slice
    /// (no store attached, or never checkpointed). Incremental
    /// compaction passes this to
    /// [`columnar::ImageStore::publish_with_reuse`] so untouched blocks
    /// become references instead of rewrites. Changes only under `maint`.
    pub provenance: Mutex<Option<BlockProvenance>>,
}

impl PartitionEntry {
    /// A fresh entry around `stable`/`delta`, with cold heat and no image
    /// provenance.
    pub(crate) fn new(
        stable: StableTable,
        delta: Arc<dyn DeltaStore>,
        io: &IoTracker,
        metrics: MaintMetrics,
    ) -> Self {
        let heat = PartitionHeat::new(stable.num_blocks());
        let heat_io = io.scoped(heat.clone());
        PartitionEntry {
            stable: RwLock::new(Arc::new(stable)),
            delta,
            maint: Mutex::new(metrics),
            heat,
            heat_io,
            provenance: Mutex::new(None),
        }
    }

    /// The current stable slice.
    pub(crate) fn stable(&self) -> Arc<StableTable> {
        self.stable.read().clone()
    }

    /// Install a new stable slice with the provenance of its blocks; the
    /// heat map restarts cold on the new geometry. The caller holds the
    /// commit guard.
    pub(crate) fn swap_stable(&self, fresh: StableTable, provenance: Option<BlockProvenance>) {
        *self.provenance.lock() = provenance;
        self.heat.reset(fresh.num_blocks());
        *self.stable.write() = Arc::new(fresh);
    }
}

/// A table as the database holds it: the ordered partitions plus the
/// split points that route between them. Shared (`Arc`) by the database's
/// map, every [`crate::Table`] handle and every transaction that captured
/// the table.
pub(crate) struct TableEntry {
    pub name: String,
    /// The table's schema (every partition's slice has it).
    pub schema: Schema,
    pub parts: Vec<PartitionEntry>,
    /// `parts.len() - 1` strictly ascending sort-key split points.
    pub splits: Vec<Vec<Value>>,
    /// Creation-time options (maintenance budgets included).
    pub opts: TableOptions,
}

/// Partition index for `key` under `splits`: the number of split points
/// at or below it (so a key equal to a split point routes *above* it).
pub(crate) fn route(splits: &[Vec<Value>], key: &[Value]) -> usize {
    splits.partition_point(|s| s.as_slice() <= key)
}

/// Build the scan segments of a partitioned table from its parts in
/// split order — the **one** place the global-RID accumulation invariant
/// (`rid_base += visible`, split order) lives. Both the read-view and
/// transaction scan paths feed their `(stable, layers, visible)` triples
/// through here, so they can never disagree on global RIDs.
pub(crate) fn build_segments<'a>(
    parts: impl Iterator<
        Item = (
            &'a columnar::StableTable,
            exec::DeltaLayers<'a>,
            u64,
            columnar::IoTracker,
        ),
    >,
) -> Vec<exec::ScanSegment<'a>> {
    let mut base = 0u64;
    parts
        .map(|(stable, layers, visible, io)| {
            let seg = exec::ScanSegment {
                stable,
                layers,
                rid_base: base,
                io,
            };
            base += visible;
            seg
        })
        .collect()
}

/// Bulk-load rows in sort-key order, read where they lie: in input order
/// when they arrive sorted, otherwise through the stable permutation that
/// sorts them ([`columnar::TableMeta::load_order`]).
#[derive(Clone, Copy)]
pub(crate) struct SortedRows<'a> {
    rows: &'a [Tuple],
    order: Option<&'a [usize]>,
}

impl<'a> SortedRows<'a> {
    pub(crate) fn new(rows: &'a [Tuple], order: Option<&'a [usize]>) -> Self {
        SortedRows { rows, order }
    }

    /// The `k`-th row in sort-key order.
    fn get(&self, k: usize) -> &'a Tuple {
        &self.rows[self.order.map_or(k, |o| o[k])]
    }

    /// How many rows, in sort-key order, lead before the first that
    /// fails `pred` (which the rows are partitioned by).
    fn partition_point(&self, pred: impl Fn(&Tuple) -> bool) -> usize {
        match self.order {
            None => self.rows.partition_point(pred),
            Some(o) => o.partition_point(|&i| pred(&self.rows[i])),
        }
    }
}

/// Resolve a [`PartitionSpec`] against the bulk-loaded rows, in sort-key
/// order, into concrete split points (empty ⇒ one partition).
/// `sk_types` are the sort-key columns' value types, in key order —
/// explicit split points must match them exactly, or routing would
/// silently compare across type tags and funnel every row into one
/// partition.
pub(crate) fn derive_splits(
    table: &str,
    spec: &PartitionSpec,
    rows: SortedRows<'_>,
    sk_cols: &[usize],
    sk_types: &[columnar::ValueType],
) -> Result<Vec<Vec<Value>>, DbError> {
    let invalid = |detail: String| DbError::Partition {
        table: table.to_string(),
        detail,
    };
    match spec {
        PartitionSpec::None => Ok(Vec::new()),
        PartitionSpec::SplitPoints(points) => {
            for p in points {
                if p.is_empty() || p.len() > sk_cols.len() {
                    return Err(invalid(format!(
                        "split point {p:?} must be a non-empty sort-key prefix (≤ {} columns)",
                        sk_cols.len()
                    )));
                }
                for (v, &want) in p.iter().zip(sk_types) {
                    if v.value_type() != Some(want) {
                        return Err(invalid(format!(
                            "split point value {v:?} does not fit sort-key type {want}"
                        )));
                    }
                }
            }
            if let Some(w) = points.windows(2).find(|w| w[0] >= w[1]) {
                return Err(invalid(format!(
                    "split points must be strictly ascending, got {:?} before {:?}",
                    w[0], w[1]
                )));
            }
            Ok(points.clone())
        }
        PartitionSpec::Count(n) => {
            if *n == 0 {
                return Err(invalid("partition count must be ≥ 1".into()));
            }
            // equi-depth split points drawn from the loaded keys: the
            // distinct keys at ranks i·d/n, found by counting key changes
            // along the sorted rows; a load with fewer distinct keys than
            // partitions degrades gracefully
            let n_rows = rows.rows.len();
            let new_key = |i: usize| {
                let (prev, row) = (rows.get(i - 1), rows.get(i));
                sk_cols.iter().any(|&c| prev[c] != row[c])
            };
            let distinct = (1..n_rows).filter(|&i| new_key(i)).count() + usize::from(n_rows > 0);
            let mut ranks = (1..*n)
                .map(|i| i * distinct / n)
                .filter(|&r| r > 0)
                .peekable();
            let mut splits: Vec<Vec<Value>> = Vec::with_capacity(n - 1);
            let mut rank = 0;
            for i in (1..n_rows).filter(|&i| new_key(i)) {
                rank += 1;
                if ranks.peek() == Some(&rank) {
                    splits.push(sk_of(rows.get(i), sk_cols));
                    while ranks.next_if_eq(&rank).is_some() {}
                }
            }
            Ok(splits)
        }
    }
}

/// Cut bulk-load rows, in sort-key order, into the partitions' contiguous
/// runs: the row count of each partition, where [`route`] sends each row.
pub(crate) fn split_rows(
    rows: SortedRows<'_>,
    splits: &[Vec<Value>],
    sk_cols: &[usize],
) -> Vec<usize> {
    let mut start = 0;
    (0..=splits.len())
        .map(|p| {
            let end = rows.partition_point(|r| route(splits, &sk_of(r, sk_cols)) <= p);
            end - std::mem::replace(&mut start, end)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: i64) -> Vec<Value> {
        vec![Value::Int(v)]
    }

    const INT: &[columnar::ValueType] = &[columnar::ValueType::Int];

    /// Rows that arrive sorted: read in input order.
    fn sorted(rows: &[Tuple]) -> SortedRows<'_> {
        SortedRows::new(rows, None)
    }

    #[test]
    fn route_sends_split_point_keys_up() {
        let splits = vec![k(10), k(20)];
        assert_eq!(route(&splits, &k(5)), 0);
        assert_eq!(route(&splits, &k(10)), 1, "split point belongs above");
        assert_eq!(route(&splits, &k(15)), 1);
        assert_eq!(route(&splits, &k(20)), 2);
        assert_eq!(route(&splits, &k(999)), 2);
    }

    #[test]
    fn count_spec_derives_equi_depth_splits() {
        let rows: Vec<Tuple> = (0..100)
            .map(|i| vec![Value::Int(i), Value::Int(0)])
            .collect();
        let splits =
            derive_splits("t", &PartitionSpec::Count(4), sorted(&rows), &[0], INT).unwrap();
        assert_eq!(splits, vec![k(25), k(50), k(75)]);
        // groups are balanced
        assert_eq!(
            split_rows(sorted(&rows), &splits, &[0]),
            vec![25, 25, 25, 25]
        );
        // repeated keys count once: the same points over each row twice
        let twice: Vec<Tuple> = rows.iter().flat_map(|r| [r.clone(), r.clone()]).collect();
        let again =
            derive_splits("t", &PartitionSpec::Count(4), sorted(&twice), &[0], INT).unwrap();
        assert_eq!(again, splits);
        assert_eq!(
            split_rows(sorted(&twice), &splits, &[0]),
            vec![50, 50, 50, 50]
        );
        // rows read through the permutation that sorts them cut the same
        let reversed: Vec<Tuple> = twice.iter().rev().cloned().collect();
        let order: Vec<usize> = (0..200).map(|k| 199 - k).collect();
        let through = SortedRows::new(&reversed, Some(&order));
        let points = derive_splits("t", &PartitionSpec::Count(4), through, &[0], INT).unwrap();
        assert_eq!(points, splits);
        assert_eq!(split_rows(through, &splits, &[0]), vec![50, 50, 50, 50]);
    }

    #[test]
    fn count_spec_degrades_on_tiny_loads() {
        // fewer distinct keys than partitions: fewer splits, never panic
        let rows: Vec<Tuple> = vec![vec![Value::Int(7)], vec![Value::Int(7)]];
        let splits =
            derive_splits("t", &PartitionSpec::Count(8), sorted(&rows), &[0], INT).unwrap();
        assert!(splits.is_empty());
        assert!(
            derive_splits("t", &PartitionSpec::Count(3), sorted(&[]), &[0], INT)
                .unwrap()
                .is_empty()
        );
        assert!(matches!(
            derive_splits("t", &PartitionSpec::Count(0), sorted(&[]), &[0], INT),
            Err(DbError::Partition { .. })
        ));
    }

    #[test]
    fn explicit_splits_validate() {
        let ok = PartitionSpec::SplitPoints(vec![k(1), k(5)]);
        assert_eq!(
            derive_splits("t", &ok, sorted(&[]), &[0], INT)
                .unwrap()
                .len(),
            2
        );
        for bad in [
            PartitionSpec::SplitPoints(vec![k(5), k(1)]),
            PartitionSpec::SplitPoints(vec![k(5), k(5)]),
            PartitionSpec::SplitPoints(vec![vec![]]),
            PartitionSpec::SplitPoints(vec![vec![Value::Int(1), Value::Int(2)]]),
            PartitionSpec::SplitPoints(vec![vec![Value::Str("m".into())]]),
            PartitionSpec::SplitPoints(vec![vec![Value::Null]]),
        ] {
            assert!(
                matches!(
                    derive_splits("t", &bad, sorted(&[]), &[0], INT),
                    Err(DbError::Partition { .. })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn split_rows_allows_empty_partitions() {
        let rows: Vec<Tuple> = vec![vec![Value::Int(100)]];
        assert_eq!(
            split_rows(sorted(&rows), &[k(10), k(20)], &[0]),
            vec![0, 0, 1]
        );
        // a key equal to a split point, or one it prefixes, starts the run
        // above it
        let rows: Vec<Tuple> = [(5, 0), (10, 0), (10, 3), (20, 1)]
            .iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect();
        assert_eq!(
            split_rows(sorted(&rows), &[k(10), k(20)], &[0, 1]),
            vec![1, 2, 1]
        );
        let mid = vec![Value::Int(10), Value::Int(1)];
        assert_eq!(split_rows(sorted(&rows), &[mid], &[0, 1]), vec![2, 2]);
    }
}
