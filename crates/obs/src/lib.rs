//! # obs — unified observability for the pdt-repro engine
//!
//! Two pieces, one crate at the bottom of the dependency graph so
//! every layer (`columnar`, `txn`, `engine`, `server`) can be
//! instrumented:
//!
//! * [`trace`] — structured tracing: fixed-size [`trace::TraceRecord`]s
//!   in lock-free per-thread rings, emitted through the [`span!`] /
//!   [`event!`] macros. Off by default; when off, each site costs one
//!   relaxed atomic load. Drain with [`trace::drain`] or a background
//!   [`trace::TraceDrain`] into a [`trace::TraceSink`]
//!   (in-memory for tests, line-JSON for operations).
//! * [`metrics`] — a registry of counters/gauges/histograms keyed by
//!   dotted name + labels, frozen into a [`metrics::MetricsSnapshot`]
//!   with Prometheus-style text and JSON expositions.
//!
//! What one query read is not recorded here: each scan counts its own
//! (`exec::ScanCounts`, read back by `explain_analyze`).
//!
//! The span taxonomy, metric naming scheme, and instrumentation guide
//! live in `ARCHITECTURE.md` § Observability.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{MetricsSnapshot, Registry};
pub use trace::{MemorySink, TraceDrain, TraceEvent, TraceKind, TraceRecord, TraceSink};

/// Emit a point [`trace::TraceRecord`] of the given [`TraceKind`],
/// optionally setting record fields:
///
/// ```
/// let t = obs::trace::intern("orders");
/// obs::event!(obs::TraceKind::WalEnqueue, table: t, seq: 7, a: 1);
/// ```
///
/// When tracing is off this expands to one relaxed atomic load.
#[macro_export]
macro_rules! event {
    ($kind:expr $(, $field:ident : $val:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            #[allow(unused_mut)]
            let mut __rec = $crate::trace::TraceRecord::new($kind);
            $( __rec.$field = $val; )*
            $crate::trace::emit(__rec);
        }
    };
}

/// Open a span: returns a [`trace::SpanGuard`] that emits the record
/// with its measured duration when dropped.
///
/// ```
/// let t = obs::trace::intern("orders");
/// let _span = obs::span!(obs::TraceKind::CheckpointMerge, table: t, part: 0);
/// // ... the guarded work ...
/// drop(_span); // emits with dur_ns set (implicit at scope end)
/// ```
///
/// When tracing is off this expands to one relaxed atomic load and a
/// no-op guard.
#[macro_export]
macro_rules! span {
    ($kind:expr $(, $field:ident : $val:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            #[allow(unused_mut)]
            let mut __rec = $crate::trace::TraceRecord::new($kind);
            $( __rec.$field = $val; )*
            $crate::trace::SpanGuard::started(__rec)
        } else {
            $crate::trace::SpanGuard::disabled()
        }
    };
}
