//! The table handle and its partitions: [`Database::table`] resolves a
//! name once into a [`Table`], whose [`Partition`]s flush, checkpoint and
//! compact themselves.
//!
//! ```text
//! let t = db.table("t")?;
//! for part in t.partitions() {
//!     part.maybe_flush(t.options().flush_threshold_bytes);
//!     part.maintain(MaintainTarget::Planned)?;   // a compaction step
//! }
//! t.partitions()[0].maintain(MaintainTarget::All)?;   // a checkpoint
//! ```
//!
//! The paper indexes a PDT against exactly one stable image (§3.3), so
//! every update structure, checkpoint and heat map is per partition, and
//! so is every maintenance operation here: one [`Partition::maintain`]
//! step covers checkpoints (every block) and compactions (a block range).

use crate::compaction::{self, CompactionReport};
use crate::partition::{PartitionEntry, TableEntry};
use crate::{delta, Database, DbError, TableOptions};
use columnar::{Schema, StableTable, Value};
use std::sync::Arc;
use std::time::Instant;

/// One table of a [`Database`], resolved once by [`Database::table`]. It
/// keeps the table's entry alive, so everything read through it — options,
/// schema, split points, partitions — costs no further lookup.
pub struct Table<'db> {
    db: &'db Database,
    entry: Arc<TableEntry>,
}

impl<'db> Table<'db> {
    pub(crate) fn new(db: &'db Database, entry: Arc<TableEntry>) -> Self {
        Table { db, entry }
    }

    /// The creation-time options (maintenance budgets included).
    pub fn options(&self) -> &TableOptions {
        &self.entry.opts
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.entry.schema
    }

    /// The resolved sort-key split points (empty for a single-partition
    /// table) — `k` points ⇒ `k + 1` partitions. Useful to rebuild an
    /// identically partitioned table (e.g. for recovery, whose WAL
    /// partition tags are relative to these splits).
    pub fn splits(&self) -> &[Vec<Value>] {
        &self.entry.splits
    }

    /// Bytes held by the committed delta layers of every partition (the
    /// input of write admission).
    pub fn delta_bytes(&self) -> usize {
        self.entry.parts.iter().map(|p| p.delta.delta_bytes()).sum()
    }

    /// The partitions, in split order (one unless range-partitioned).
    pub fn partitions(&self) -> Vec<Partition<'_>> {
        (0..self.entry.parts.len())
            .map(|index| Partition {
                db: self.db,
                table: &self.entry,
                index,
            })
            .collect()
    }
}

/// One partition of a [`Table`]: its stable slice, its update structure,
/// and the maintenance operations that move delta from one to the other.
/// Maintenance of one partition is serialized by its own mutex; commits
/// and readers never wait for it.
#[derive(Clone, Copy)]
pub struct Partition<'t> {
    db: &'t Database,
    table: &'t TableEntry,
    index: usize,
}

/// Which blocks of a partition one [`Partition::maintain`] step rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainTarget {
    /// Every block: the whole-partition checkpoint.
    All,
    /// The compaction planner's best-scoring step, if the table enables
    /// compaction ([`TableOptions::compaction`]) and anything scores over
    /// its floors.
    Planned,
    /// Stable blocks `[b0, b1)`.
    Blocks(usize, usize),
}

impl<'t> Partition<'t> {
    fn state(&self) -> &'t PartitionEntry {
        &self.table.parts[self.index]
    }

    /// The current stable slice.
    pub fn stable(&self) -> Arc<StableTable> {
        self.state().stable()
    }

    /// Bytes held by the partition's committed delta layers (the
    /// checkpoint budget input).
    pub fn delta_bytes(&self) -> usize {
        self.state().delta.delta_bytes()
    }

    /// Migrate the write-optimised delta layer into the read-optimised one
    /// when it holds more than `threshold_bytes` (the paper's Propagate
    /// policy). Returns whether anything moved; single-layer structures
    /// never flush. Serialized against the partition's other maintenance;
    /// commits and readers are never blocked.
    pub fn maybe_flush(&self, threshold_bytes: usize) -> bool {
        let pe = self.state();
        let metrics = pe.maint.lock();
        let flushed = pe.delta.write_bytes() > threshold_bytes && pe.delta.flush();
        if flushed {
            metrics.flushed();
        }
        flushed
    }

    /// Fold the delta addressing the `target` blocks into fresh blocks
    /// spliced between the untouched neighbours, and rebase the rest of
    /// the delta onto the new image — *the* maintenance step; a checkpoint
    /// is the same step over every block ([`MaintainTarget::All`]): nothing
    /// is kept, so the residual delta is empty, no block is reused and
    /// inserts past the last stable row fold too. Three phases, serialized
    /// per partition by its maintenance mutex:
    ///
    /// 1. **pin** — under the commit guard, capture the committed delta
    ///    the step covers (commits up to the pinned sequence);
    /// 2. **merge** — off every lock, so commits keep landing and read
    ///    views keep opening: merge the range block by block into a new
    ///    slice and, on a WAL-backed database, publish it as an image
    ///    that *references* the kept blocks of earlier generations instead
    ///    of rewriting their bytes;
    /// 3. **install** — under the commit guard again, atomically: append
    ///    the WAL marker (folded SID window + rebased residual, so
    ///    recovery replays exactly what the image does not contain), swap
    ///    the partition's slice, replace the pinned delta by its residual.
    ///    Commits that landed during the merge stay on top.
    ///
    /// An empty range is a step only at the end of the image
    /// (`b0 == b1 == num_blocks`), where it still folds the append gap —
    /// that is how a partition created without rows gets its first blocks.
    /// Returns `None` when the partition has no delta to pin, or when
    /// [`MaintainTarget::Planned`] plans nothing.
    pub fn maintain(&self, target: MaintainTarget) -> Result<Option<CompactionReport>, DbError> {
        self.maintain_observed(target, &mut None::<fn()>)
    }

    /// [`Partition::maintain`] with the [`Database::checkpoint_observed`]
    /// seam: `during_merge` is taken and run once, off-lock, right after
    /// the merge.
    pub(crate) fn maintain_observed(
        &self,
        target: MaintainTarget,
        during_merge: &mut Option<impl FnOnce()>,
    ) -> Result<Option<CompactionReport>, DbError> {
        let (db, pe, table) = (self.db, self.state(), self.table.name.as_str());
        let metrics = pe.maint.lock();
        // slice, heat and provenance only change under the maintenance
        // mutex: what is captured here is what the step installs over
        let stable = pe.stable();
        let old_nb = stable.num_blocks();
        let (b0, b1) = match target {
            MaintainTarget::All => (0, old_nb),
            MaintainTarget::Blocks(b0, b1) => (b0, b1),
            MaintainTarget::Planned => {
                let cfg = &self.table.opts.compaction;
                let planned = cfg
                    .enabled
                    .then(|| compaction::plan_steps(&pe.heat.snapshot(), &stable, cfg))
                    .and_then(|steps| steps.first().copied());
                match planned {
                    Some(step) => (step.b0, step.b1),
                    None => return Ok(None),
                }
            }
        };
        if b0 > b1 || b1 > old_nb || (b0 == b1 && b1 < old_nb) {
            return Err(DbError::Partition {
                table: table.to_string(),
                detail: format!("compaction range [{b0}, {b1}) out of bounds ({old_nb} blocks)"),
            });
        }
        // the structural drop across the step is what it retired (commits
        // landing meanwhile can only undercount it)
        let delta_bytes_before = pe.delta.delta_bytes() as u64;
        // Phase 1 — pin the delta to fold, under the commit guard.
        let pin = {
            let _commit = db.txn_mgr.commit_guard();
            match pe.delta.checkpoint_pin(db.txn_mgr.seq()) {
                Some(pin) => pin,
                None => return Ok(None),
            }
        };
        // the trace kinds (not the code path) tell a whole-partition
        // checkpoint from a sub-partition step
        let (pin_kind, merge_kind, install_kind) = if b0 == 0 && b1 == old_nb {
            (
                obs::TraceKind::CheckpointPin,
                obs::TraceKind::CheckpointMerge,
                obs::TraceKind::CheckpointInstall,
            )
        } else {
            (
                obs::TraceKind::CompactionPin,
                obs::TraceKind::CompactionMerge,
                obs::TraceKind::CompactionInstall,
            )
        };
        let (part, seq, a, b) = (self.index as u32, pin.seq(), b0 as u64, b1 as u64);
        obs::event!(pin_kind, table: obs::trace::intern(table), part: part, seq: seq, a: a, b: b);
        let range = delta::CompactRange::of(&stable, b0, b1);
        let delta_bytes_folded: u64 = pe
            .heat
            .snapshot()
            .get(b0..b1)
            .map_or(0, |s| s.iter().map(|h| h.delta_bytes).sum());
        let stable_bytes_total: u64 = (0..old_nb)
            .map(|b| compaction::block_stored_bytes(&stable, b))
            .sum();
        // Everything up to the WAL marker can fail; any failure aborts the
        // pin below, leaving the partition ready for the next attempt.
        let staged = (|| -> Result<_, DbError> {
            // Phase 2 — merge + splice + image publish, off every lock:
            // commits and read views proceed.
            let merge_span = obs::span!(
                merge_kind, table: obs::trace::intern(table), part: part, seq: seq, a: a, b: b
            );
            let fold = Instant::now();
            let mut merge = pin.merge(&stable, &range, &db.io)?;
            metrics.folded(fold.elapsed());
            if let Some(observer) = during_merge.take() {
                observer();
            }
            let mut swap = None;
            let mut stable_bytes_written = 0;
            if let Some(fresh) = merge.fresh.take() {
                let new_nb = fresh.num_blocks();
                // the splice may change the range's row (hence block)
                // count, never the kept prefix/suffix block counts
                let suffix_at = new_nb - (old_nb - b1);
                stable_bytes_written = (b0..suffix_at)
                    .map(|b| compaction::block_stored_bytes(&fresh, b))
                    .sum();
                let mut new_prov = None;
                if let Some(images) = &db.images {
                    // kept blocks are published as *references* into the
                    // generations that actually wrote their bytes
                    // (provenance chains are collapsed, so every reference
                    // points at its origin image); without a known
                    // provenance — the slice was never published — every
                    // block is written inline this once
                    let old_prov = pe.provenance.lock().clone().filter(|op| op.len() == old_nb);
                    let prov: Vec<Option<(u64, usize)>> = (0..new_nb)
                        .map(|i| {
                            let op = old_prov.as_ref()?;
                            if i < b0 {
                                Some(op[i])
                            } else if i < suffix_at {
                                None
                            } else {
                                Some(op[b1 + (i - suffix_at)])
                            }
                        })
                        .collect();
                    let publish = Instant::now();
                    images.publish_with_reuse(table, part, seq, &fresh, &prov)?;
                    metrics.published(publish.elapsed());
                    // a crash here leaves a manifest entry ahead of the
                    // WAL, which recovery ignores in favor of the retained
                    // previous image (see `columnar::ImageStore`)
                    if db
                        .crash_after_publish
                        .swap(false, std::sync::atomic::Ordering::SeqCst)
                    {
                        return Err(DbError::Io(std::io::Error::other(
                            "simulated crash between image publish and checkpoint marker",
                        )));
                    }
                    new_prov = Some(
                        prov.iter()
                            .enumerate()
                            .map(|(i, e)| e.unwrap_or((seq, i)))
                            .collect(),
                    );
                }
                swap = Some((fresh, new_prov));
            }
            drop(merge_span);
            // Phase 3 — install: marker, slice swap and delta replacement,
            // atomic under the commit guard. An unchanged image needs no
            // marker: the log still replays to the state it describes.
            let commit = db.txn_mgr.commit_guard();
            if swap.is_some() {
                db.txn_mgr
                    .log_checkpoint(
                        table,
                        part,
                        seq,
                        (range.s0, range.s1),
                        &merge.residual_entries,
                    )
                    .map_err(DbError::Io)?;
            }
            Ok((merge, swap, stable_bytes_written, commit))
        })();
        let (merge, swap, stable_bytes_written, _commit) = match staged {
            Ok(staged) => staged,
            Err(e) => {
                pin.abort();
                return Err(e);
            }
        };
        // the geometry may have changed and the folded heat is spent: the
        // map restarts cold either way
        match swap {
            Some((fresh, new_prov)) => pe.swap_stable(fresh, new_prov),
            None => pe.heat.reset(old_nb),
        }
        (merge.install)();
        obs::event!(install_kind, table: obs::trace::intern(table), part: part, seq: seq, a: a, b: b);
        let report = CompactionReport {
            blocks_merged: (b1 - b0) as u64,
            blocks_reused: (old_nb - (b1 - b0)) as u64,
            delta_bytes_folded,
            stable_bytes_written,
            stable_bytes_total,
        };
        let retired = delta_bytes_before.saturating_sub(pe.delta.delta_bytes() as u64);
        metrics.stepped(&report, retired);
        Ok(Some(report))
    }
}
