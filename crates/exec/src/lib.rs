//! # Block-oriented query executor
//!
//! A small vectorized (block-at-a-time, in the MonetDB/X100 tradition the
//! paper's system descends from) query executor over the columnar read
//! store, with differential updates merged in during scans:
//!
//! * [`batch::Batch`] — a block of rows in columnar layout with a starting
//!   RID (output rows of a merge scan are consecutively numbered),
//! * [`expr::Expr`] — a vectorized expression interpreter (arithmetic,
//!   comparisons, boolean logic, `LIKE`, `CASE`, `IN`, date extraction),
//! * [`ops`] — pull-based operators: table scans (clean / PDT-merging /
//!   VDT-merging, single-segment or partition unions), filter, project,
//!   hash aggregation, hash joins (inner/left-outer/semi/anti), sort,
//!   top-n and limit,
//! * [`stats`] — per-query accounting of scan time vs processing time and
//!   I/O volume: exactly the quantities plotted in the paper's Figure 19.
//!
//! Plans are built by hand (no SQL frontend): the TPC-H queries in the
//! `tpch` crate compose these operators directly.

#![warn(missing_docs)]

pub mod batch;
pub mod expr;
pub mod ops;
pub mod stats;

pub use batch::Batch;
pub use expr::{CmpOp, Expr};
pub use ops::aggregate::{AggFunc, AggSpec, HashAggregate};
pub use ops::filter::Filter;
pub use ops::gather::{gather_rows, Gathered};
pub use ops::join::{HashJoin, JoinKind};
pub use ops::project::Project;
pub use ops::scan::{DeltaLayers, ScanBounds, ScanSegment, TableScan};
pub use ops::sort::{Limit, Sort, SortKey, TopN};
pub use ops::{run_to_rows, BoxOp, Operator};
pub use stats::{measure, QueryStats, ScanClock};
