//! Heat-driven incremental compaction: per-block delta/scan statistics,
//! and the cost model that turns them into bounded sub-partition merge
//! steps.
//!
//! A whole-partition checkpoint rewrites every stable block to fold a
//! delta that — under skewed churn — concentrates in a few of them. The
//! compaction subsystem keeps, per partition, a [`PartitionHeat`] map of
//! where delta and scan traffic actually lands, and a planner
//! ([`plan_steps`]) that scores contiguous block ranges by *benefit per
//! rewritten byte*: fold the hottest ranges into fresh blocks, leave the
//! cold majority untouched (their encoded payloads — and, with an image
//! store, their on-disk blocks — are reused verbatim). The scheduler
//! drains the resulting [`CompactionStep`]s between full checkpoints.
//!
//! Heat is *advisory*: every counter here is a heuristic input to the
//! planner, never part of the correctness argument. A lost or double
//! count changes which range merges first, not what any scan returns.
//!
//! ## Feeds
//!
//! * **Delta heat** — the DML layer charges every staged batch's bytes to
//!   the stable blocks its rid span covers
//!   ([`PartitionHeat::record_delta_span`]).
//! * **Scan heat** — every engine scan path reads stable blocks through a
//!   per-partition [`columnar::IoTracker::scoped`] tracker, which reports
//!   `(block, bytes)` pairs to the partition's heat map via
//!   [`columnar::BlockHeatSink`] while the byte totals keep accumulating
//!   in the database-global counters.
//!
//! Both feeds reset when the partition's stable slice is swapped (a
//! checkpoint or compaction changes the block geometry, so old indices
//! are meaningless).

use columnar::{BlockHeatSink, StableTable};
use parking_lot::Mutex;
use std::sync::Arc;

/// Per-block accumulators of one partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockHeat {
    /// Bytes of staged delta payload attributed to this block's rid span.
    pub delta_bytes: u64,
    /// Stored bytes scans read from this block since the last reset.
    pub scan_bytes: u64,
}

/// Heat map of one partition's stable blocks. Shared (`Arc`) between the
/// partition entry, every transaction snapshot of it, and the scoped
/// [`columnar::IoTracker`] its scans charge.
#[derive(Debug, Default)]
pub struct PartitionHeat {
    blocks: Mutex<Vec<BlockHeat>>,
}

impl PartitionHeat {
    /// Fresh, all-cold map for a stable slice of `num_blocks` blocks.
    pub fn new(num_blocks: usize) -> Arc<PartitionHeat> {
        Arc::new(PartitionHeat {
            blocks: Mutex::new(vec![BlockHeat::default(); num_blocks]),
        })
    }

    /// Drop all heat and re-size for a freshly swapped stable slice.
    pub fn reset(&self, num_blocks: usize) {
        let mut b = self.blocks.lock();
        b.clear();
        b.resize(num_blocks, BlockHeat::default());
    }

    /// Charge `bytes` of staged delta payload to blocks `[b0, b1]`
    /// (inclusive), distributed evenly. Out-of-range indices are clamped —
    /// trailing inserts land on the last block.
    pub fn record_delta_span(&self, b0: usize, b1: usize, bytes: u64) {
        let mut blocks = self.blocks.lock();
        let n = blocks.len();
        if n == 0 {
            return;
        }
        let lo = b0.min(n - 1);
        let hi = b1.min(n - 1).max(lo);
        let span = (hi - lo + 1) as u64;
        let per = bytes / span;
        let mut rem = bytes % span;
        for h in &mut blocks[lo..=hi] {
            h.delta_bytes += per + u64::from(rem > 0);
            rem = rem.saturating_sub(1);
        }
    }

    /// Snapshot of the per-block counters.
    pub fn snapshot(&self) -> Vec<BlockHeat> {
        self.blocks.lock().clone()
    }
}

impl BlockHeatSink for PartitionHeat {
    fn on_block_read(&self, block: usize, bytes: u64) {
        let mut blocks = self.blocks.lock();
        if let Some(h) = blocks.get_mut(block) {
            h.scan_bytes += bytes;
        }
    }
}

/// Creation-time knobs of the incremental-compaction planner, part of
/// [`crate::TableOptions`]. Integral on purpose so table options stay
/// `Eq`; the score threshold is in permille (1000 = benefit equals cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionConfig {
    /// Master switch. Off (the default) keeps the pre-compaction engine:
    /// only whole-partition checkpoints rewrite stable state.
    pub enabled: bool,
    /// Longest block range one compaction step may rewrite. Bounds both
    /// the off-lock merge cost and the write amplification of a single
    /// step. Default 8.
    pub max_unit_blocks: usize,
    /// Delta bytes a candidate range must have accumulated before it is
    /// worth a rewrite at all. Default 4 KiB.
    pub min_delta_bytes: u64,
    /// Minimum `benefit * 1000 / cost` a step must score (see
    /// [`plan_steps`]). Default 0 — any range over the byte floor merges.
    pub min_score_permille: u64,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            enabled: false,
            max_unit_blocks: 8,
            min_delta_bytes: 4 << 10,
            min_score_permille: 0,
        }
    }
}

/// One planned sub-partition merge: fold the delta overlapping stable
/// blocks `[b0, b1)` into fresh blocks, leaving the rest of the partition
/// untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStep {
    /// First stable block of the unit.
    pub b0: usize,
    /// One past the last stable block of the unit.
    pub b1: usize,
    /// `benefit * 1000 / cost` at plan time (see [`plan_steps`]).
    pub score_permille: u64,
    /// Delta bytes attributed to the unit at plan time.
    pub delta_bytes: u64,
}

/// Stored bytes of stable block `b`, summed over all columns — the
/// planner's rewrite-cost unit.
pub(crate) fn block_stored_bytes(stable: &StableTable, b: usize) -> u64 {
    (0..stable.num_columns())
        .map(|c| stable.column_blocks(c)[b].stored_bytes())
        .sum()
}

/// Score the partition's heat map into an ordered list of compaction
/// steps (best first), SynchroStore-style:
///
/// * a **candidate** is a maximal run of adjacent blocks with any delta
///   heat, chopped to `max_unit_blocks`;
/// * its **benefit** is the delta bytes it would fold, weighted up by how
///   much scan traffic crosses the range (folding delta under a hot scan
///   path saves merge work on every future read);
/// * its **cost** is the stored bytes of the stable blocks it rewrites;
/// * its score is `benefit * 1000 / cost` — ranges below
///   `min_delta_bytes` or `min_score_permille` are dropped.
///
/// Deterministic and O(blocks): same heat in, same plan out. Returned
/// steps never overlap, so the scheduler may run them back to back (each
/// installed step resets the heat map anyway).
pub fn plan_steps(
    heat: &[BlockHeat],
    stable: &StableTable,
    cfg: &CompactionConfig,
) -> Vec<CompactionStep> {
    let n = heat.len().min(stable.num_blocks());
    let max_unit = cfg.max_unit_blocks.max(1);
    let mut steps = Vec::new();
    let mut b = 0usize;
    while b < n {
        if heat[b].delta_bytes == 0 {
            b += 1;
            continue;
        }
        // maximal hot run, chopped into units of at most max_unit blocks
        let mut end = b;
        while end < n && heat[end].delta_bytes > 0 {
            end += 1;
        }
        let mut u0 = b;
        while u0 < end {
            let u1 = (u0 + max_unit).min(end);
            let delta_bytes: u64 = heat[u0..u1].iter().map(|h| h.delta_bytes).sum();
            let scan_bytes: u64 = heat[u0..u1].iter().map(|h| h.scan_bytes).sum();
            let cost: u64 = (u0..u1).map(|i| block_stored_bytes(stable, i)).sum();
            if delta_bytes >= cfg.min_delta_bytes {
                // scan weight: 1 + scan/stored, capped so a scan-only
                // hotspot cannot dwarf the delta term
                let weight_permille = 1000
                    + (scan_bytes.min(cost.saturating_mul(4))).saturating_mul(1000) / cost.max(1);
                let benefit = delta_bytes.saturating_mul(weight_permille) / 1000;
                let score_permille = benefit.saturating_mul(1000) / cost.max(1);
                if score_permille >= cfg.min_score_permille {
                    steps.push(CompactionStep {
                        b0: u0,
                        b1: u1,
                        score_permille,
                        delta_bytes,
                    });
                }
            }
            u0 = u1;
        }
        b = end;
    }
    steps.sort_by(|a, b| {
        b.score_permille
            .cmp(&a.score_permille)
            .then(a.b0.cmp(&b.b0))
    });
    steps
}

/// Counters one maintenance step ([`crate::Database::compact_range`], a
/// planned [`crate::Database::compact_partition`] step, or the checkpoint
/// that is the step over every block) reports back to the scheduler and
/// the serving layer's metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Stable blocks the step merged (rewrote).
    pub blocks_merged: u64,
    /// Stable blocks of the partition left untouched by the step (and,
    /// when an image store is attached, reused by reference in the
    /// published image).
    pub blocks_reused: u64,
    /// Delta bytes the step folded out of the update structure.
    pub delta_bytes_folded: u64,
    /// Stable bytes the step rewrote.
    pub stable_bytes_written: u64,
    /// Stable bytes a whole-partition checkpoint would have rewritten in
    /// its place — `stable_bytes_saved = this - stable_bytes_written` is
    /// the write amplification the incremental step avoided.
    pub stable_bytes_total: u64,
}

impl CompactionReport {
    /// Stable bytes the step did **not** rewrite.
    pub fn stable_bytes_saved(&self) -> u64 {
        self.stable_bytes_total
            .saturating_sub(self.stable_bytes_written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::{Schema, TableMeta, Tuple, Value, ValueType};

    fn stable_with(nrows: i64, block_rows: usize) -> StableTable {
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let rows: Vec<Tuple> = (0..nrows)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2)])
            .collect();
        StableTable::bulk_load(
            TableMeta::new("t", schema, vec![0]),
            columnar::TableOptions {
                block_rows,
                compressed: true,
            },
            &rows,
        )
        .unwrap()
    }

    #[test]
    fn heat_accumulates_and_resets() {
        let h = PartitionHeat::new(4);
        h.record_delta_span(1, 2, 100);
        h.on_block_read(1, 40);
        h.on_block_read(9, 7); // out of range: ignored, never panics
        let snap = h.snapshot();
        assert_eq!(snap[0], BlockHeat::default());
        assert_eq!(snap[1].delta_bytes, 50);
        assert_eq!(snap[2].delta_bytes, 50);
        assert_eq!(snap[1].scan_bytes, 40);
        h.reset(2);
        assert_eq!(h.snapshot(), vec![BlockHeat::default(); 2]);
    }

    #[test]
    fn delta_span_clamps_and_distributes_remainder() {
        let h = PartitionHeat::new(3);
        // span beyond the last block clamps onto it (trailing inserts)
        h.record_delta_span(5, 9, 30);
        assert_eq!(h.snapshot()[2].delta_bytes, 30);
        // odd bytes over an even span: nothing lost
        h.record_delta_span(0, 1, 7);
        let snap = h.snapshot();
        assert_eq!(snap[0].delta_bytes + snap[1].delta_bytes, 7);
    }

    #[test]
    fn planner_picks_hot_ranges_and_bounds_units() {
        let stable = stable_with(64, 8); // 8 blocks
        let mut heat = vec![BlockHeat::default(); 8];
        // a hot pair and a lukewarm singleton
        heat[2].delta_bytes = 10_000;
        heat[3].delta_bytes = 8_000;
        heat[6].delta_bytes = 5_000;
        let cfg = CompactionConfig {
            enabled: true,
            max_unit_blocks: 8,
            min_delta_bytes: 1,
            min_score_permille: 0,
        };
        let steps = plan_steps(&heat, &stable, &cfg);
        assert_eq!(steps.len(), 2);
        assert_eq!((steps[0].b0, steps[0].b1), (2, 4), "hottest range first");
        assert_eq!((steps[1].b0, steps[1].b1), (6, 7));
        assert!(steps[0].score_permille >= steps[1].score_permille);
        // unit bound chops a long hot run
        let all_hot = vec![
            BlockHeat {
                delta_bytes: 100,
                scan_bytes: 0
            };
            8
        ];
        let bounded = plan_steps(
            &all_hot,
            &stable,
            &CompactionConfig {
                max_unit_blocks: 3,
                min_delta_bytes: 1,
                ..cfg
            },
        );
        assert_eq!(bounded.len(), 3);
        assert!(bounded.iter().all(|s| s.b1 - s.b0 <= 3));
    }

    #[test]
    fn planner_respects_floors() {
        let stable = stable_with(64, 8);
        let mut heat = vec![BlockHeat::default(); 8];
        heat[1].delta_bytes = 100;
        let cfg = CompactionConfig {
            enabled: true,
            max_unit_blocks: 8,
            min_delta_bytes: 1000,
            min_score_permille: 0,
        };
        assert!(plan_steps(&heat, &stable, &cfg).is_empty(), "byte floor");
        let cfg = CompactionConfig {
            min_delta_bytes: 1,
            min_score_permille: u64::MAX,
            ..cfg
        };
        assert!(plan_steps(&heat, &stable, &cfg).is_empty(), "score floor");
        // scan heat alone never plans a step (nothing to fold)
        let mut scan_only = vec![BlockHeat::default(); 8];
        scan_only[0].scan_bytes = 1 << 20;
        let cfg = CompactionConfig {
            min_delta_bytes: 1,
            min_score_permille: 0,
            ..cfg
        };
        assert!(plan_steps(&scan_only, &stable, &cfg).is_empty());
    }

    #[test]
    fn scan_heat_raises_scores() {
        let stable = stable_with(64, 8);
        let mut cold = vec![BlockHeat::default(); 8];
        cold[0].delta_bytes = 500;
        cold[4].delta_bytes = 500;
        let mut scanned = cold.clone();
        scanned[4].scan_bytes = 10_000;
        let cfg = CompactionConfig {
            enabled: true,
            max_unit_blocks: 1,
            min_delta_bytes: 1,
            min_score_permille: 0,
        };
        let without = plan_steps(&cold, &stable, &cfg);
        assert_eq!((without[0].b0, without[1].b0), (0, 4), "tie keeps order");
        let with = plan_steps(&scanned, &stable, &cfg);
        assert_eq!(with[0].b0, 4, "scan traffic promotes the range");
        assert!(with[0].score_permille > without[1].score_permille);
    }
}
