//! Admission control: keep writers from outrunning maintenance.
//!
//! A table's delta structures are RAM-resident; the maintenance scheduler
//! retires them by checkpointing partitions whose committed delta exceeds
//! the per-partition byte budget
//! ([`engine::TableOptions::checkpoint_threshold_bytes`]). A write
//! workload that sustains more delta than maintenance can fold would grow
//! the delta without bound. The server therefore gates every transaction's
//! *first* write to a table on the table's total delta footprint:
//!
//! * below `soft_multiple ×` the table's checkpoint budget — admit
//!   immediately;
//! * above it — poke the scheduler and **delay** the writer (bounded by
//!   [`AdmissionConfig::max_delay`], re-checking every
//!   [`AdmissionConfig::retry_tick`]) so maintenance can catch up;
//! * still above `hard_multiple ×` the budget when the delay budget is
//!   exhausted — **reject** with [`crate::ServerError::Backpressure`]. The
//!   session can retry after maintenance (or an explicit checkpoint)
//!   drains the table.
//!
//! The budget is `checkpoint_threshold_bytes ×` the table's partition
//! count, i.e. the table-wide footprint the scheduler is configured to
//! tolerate before it starts folding slices. The check resolves the table
//! once ([`engine::Database::table`]) and re-reads its
//! [`engine::Table::delta_bytes`] on every retry tick.

use std::time::Duration;

/// Backpressure knobs (see the module docs for the three-zone scheme).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Delay writes once the table's delta bytes exceed this multiple of
    /// the table's checkpoint budget. Default 2.0.
    pub soft_multiple: f64,
    /// Reject writes still over this multiple after the delay budget is
    /// spent. Default 4.0.
    pub hard_multiple: f64,
    /// Total delay budget per admission check. Default 50 ms.
    pub max_delay: Duration,
    /// Re-check cadence while delaying. Default 1 ms.
    pub retry_tick: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            soft_multiple: 2.0,
            hard_multiple: 4.0,
            max_delay: Duration::from_millis(50),
            retry_tick: Duration::from_millis(1),
        }
    }
}

impl AdmissionConfig {
    /// No backpressure: writes are always admitted.
    pub fn disabled() -> Self {
        AdmissionConfig {
            soft_multiple: f64::INFINITY,
            hard_multiple: f64::INFINITY,
            max_delay: Duration::ZERO,
            retry_tick: Duration::from_millis(1),
        }
    }

    /// `(soft, hard)` byte limits for a table-wide checkpoint budget.
    pub(crate) fn limits(&self, budget_bytes: usize) -> (usize, usize) {
        let scale = |m: f64| -> usize {
            let v = budget_bytes as f64 * m;
            if v >= usize::MAX as f64 {
                usize::MAX
            } else {
                v as usize
            }
        };
        (scale(self.soft_multiple), scale(self.hard_multiple))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_scale_and_saturate() {
        let cfg = AdmissionConfig::default();
        assert_eq!(cfg.limits(100), (200, 400));
        let off = AdmissionConfig::disabled();
        assert_eq!(off.limits(100), (usize::MAX, usize::MAX));
    }
}
