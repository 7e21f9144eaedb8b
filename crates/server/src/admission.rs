//! Admission control: keep writers from outrunning maintenance.
//!
//! A table's delta structures are RAM-resident; the maintenance scheduler
//! retires them by checkpointing partitions whose committed delta exceeds
//! the per-partition byte budget
//! ([`engine::TableOptions::checkpoint_threshold_bytes`]). A write
//! workload that sustains more delta than maintenance can fold would grow
//! the delta without bound. The server therefore gates every transaction's
//! *first* write to a table on the table's total delta footprint, by a
//! fixed policy:
//!
//! * up to 2 × the table's checkpoint budget — admit immediately;
//! * above it — poke the scheduler and **delay** the writer (up to 50 ms,
//!   re-checking every 1 ms) so maintenance can catch up;
//! * still above 4 × the budget when the delay budget is spent —
//!   **reject** with [`crate::ServerError::Backpressure`]. The
//!   session can retry after maintenance (or an explicit checkpoint)
//!   drains the table.
//!
//! The budget is `checkpoint_threshold_bytes ×` the table's partition
//! count, i.e. the table-wide footprint the scheduler is configured to
//! tolerate before it starts folding slices. The check resolves the table
//! once ([`engine::Database::table`]) and re-reads its
//! [`engine::Table::delta_bytes`] on every retry tick. A table's
//! checkpoint budget is the one knob that moves these limits.

use std::time::Duration;

/// Writes are delayed once the table's delta exceeds this multiple of its
/// checkpoint budget.
const SOFT_MULTIPLE: usize = 2;
/// Writes still over this multiple of the budget after the delay are
/// rejected.
const HARD_MULTIPLE: usize = 4;
/// Total delay budget of one admission check.
pub(crate) const MAX_DELAY: Duration = Duration::from_millis(50);
/// Re-check interval while delaying.
pub(crate) const RETRY_TICK: Duration = Duration::from_millis(1);

/// `(soft, hard)` byte limits for a table-wide checkpoint budget.
pub(crate) fn limits(budget_bytes: usize) -> (usize, usize) {
    (
        budget_bytes.saturating_mul(SOFT_MULTIPLE),
        budget_bytes.saturating_mul(HARD_MULTIPLE),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_scale_and_saturate() {
        assert_eq!(limits(100), (200, 400));
        assert_eq!(limits(usize::MAX), (usize::MAX, usize::MAX));
        assert_eq!(limits(usize::MAX / 3), (usize::MAX / 3 * 2, usize::MAX));
    }
}
