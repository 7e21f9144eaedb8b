//! # pdt-repro — Positional Update Handling in Column Stores
//!
//! Workspace façade re-exporting the crates of this reproduction of
//! Héman et al., *"Positional Update Handling in Column Stores"*
//! (SIGMOD 2010). See `README.md` for a tour, a quickstart, and the
//! paper-to-module map.
//!
//! * [`pdt`] — the Positional Delta Tree (the paper's contribution)
//! * [`vdt`] — the value-based baseline
//! * [`columnar`] — ordered compressed columnar storage substrate
//! * [`exec`] — block-oriented query executor; every scan counts what it
//!   reads (`exec::ScanCounts`, the per-query scan profile)
//! * [`txn`] — 3-layer-PDT snapshot-isolation transaction manager
//! * [`engine`] — the mini column-store DBMS; every table's update
//!   structure (PDT or VDT) sits behind the unified
//!   [`engine::DeltaStore`] lifecycle
//! * [`tpch`] — TPC-H generator, refresh streams and the 22 queries
//! * [`server`] — concurrent session front end: bounded session pool,
//!   group-commit WAL, write admission control, serving metrics
//! * [`obs`] — the observability layer: structured tracing
//!   (`obs::span!` / `obs::event!` into lock-free per-thread rings) and
//!   the unified metrics registry

pub use columnar;
pub use engine;
pub use exec;
pub use obs;
pub use pdt;
pub use server;
pub use tpch;
pub use txn;
pub use vdt;

/// The types most programs need, one `use` away.
pub mod prelude {
    pub use columnar::{Schema, TableMeta, Tuple, Value, ValueType};
    pub use engine::{
        Database, DbError, DbTxn, MaintenanceConfig, MaintenanceScheduler, QueryProfile, ScanSpec,
        TableOptions, UpdatePolicy, WalStats,
    };
    pub use obs::{TraceEvent, TraceKind};
    pub use server::{
        CounterSnapshot, MetricsSnapshot, Server, ServerConfig, ServerError, Session,
        SessionMetricsSnapshot, TableMetricsSnapshot,
    };
}
