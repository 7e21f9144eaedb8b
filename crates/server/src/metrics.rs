//! Per-table and per-session serving metrics: typed views over the
//! database's one [`obs::Registry`].
//!
//! Sessions record where the event happens, into handles resolved once:
//! `server.session.*{session, id}` per session and
//! `server.table.*{table}` per label — table names for commits, whatever
//! the caller passes to [`crate::Session::query`] (a table name, a query
//! id like `q06`) for reads. Each label set carries the event counters
//! and two `*_latency_ns` [`obs::metrics::Histogram`]s. A
//! [`MetricsSnapshot`] is one frozen registry snapshot (`unified`) plus
//! the per-table and per-session views read out of it, and implements
//! `Display` for a one-call report.

use obs::metrics::{Counter, Histogram, HistogramSnapshot, MetricValue};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The handles one session or one table / query label records into.
pub(crate) struct Series {
    pub commits: Arc<Counter>,
    pub aborts: Arc<Counter>,
    pub conflicts: Arc<Counter>,
    pub delays: Arc<Counter>,
    pub rejects: Arc<Counter>,
    pub commit_latency: Arc<Histogram>,
    /// `query_latency_ns` of a session, `scan_latency_ns` of a label.
    pub read_latency: Arc<Histogram>,
}

impl Series {
    /// Resolve `<prefix>.{commits, …, commit_latency_ns, <read>}` under
    /// `labels`.
    pub fn resolve(reg: &obs::Registry, prefix: &str, read: &str, labels: &[(&str, &str)]) -> Self {
        let counter = |name: &str| reg.counter(&format!("{prefix}.{name}"), labels);
        Series {
            commits: counter("commits"),
            aborts: counter("aborts"),
            conflicts: counter("conflicts"),
            delays: counter("delays"),
            rejects: counter("rejects"),
            commit_latency: reg.histogram(&format!("{prefix}.commit_latency_ns"), labels),
            read_latency: reg.histogram(&format!("{prefix}.{read}"), labels),
        }
    }
}

/// Point-in-time copy of one counter set (a table's or a session's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted (explicitly or by a failed commit).
    pub aborts: u64,
    /// Aborts caused by write-write conflicts (subset of `aborts`).
    pub conflicts: u64,
    /// Admission checks that delayed a writer.
    pub delays: u64,
    /// Admission checks that rejected a writer ([`crate::ServerError::Backpressure`]).
    pub rejects: u64,
}

impl CounterSnapshot {
    /// Take the series `field` (`commits`, `aborts`, …) of a counter set;
    /// any other field is not a counter of the set.
    fn set(&mut self, field: &str, v: &MetricValue) {
        let slot = match field {
            "commits" => &mut self.commits,
            "aborts" => &mut self.aborts,
            "conflicts" => &mut self.conflicts,
            "delays" => &mut self.delays,
            "rejects" => &mut self.rejects,
            _ => return,
        };
        *slot = v.as_u64().unwrap_or(0);
    }
}

/// One table's (or query label's) frozen metrics.
#[derive(Debug, Clone, Default)]
pub struct TableMetricsSnapshot {
    pub name: String,
    pub counters: CounterSnapshot,
    /// Commit latency of transactions that touched the table.
    pub commit_latency: Option<HistogramSnapshot>,
    /// Latency of queries recorded under this label.
    pub scan_latency: Option<HistogramSnapshot>,
}

/// One session's frozen metrics.
#[derive(Debug, Clone, Default)]
pub struct SessionMetricsSnapshot {
    pub name: String,
    /// Distinguishes sessions sharing a name; ascending in creation order.
    pub id: u64,
    pub counters: CounterSnapshot,
    /// Queries the session ran via [`crate::Session::query`].
    pub queries: u64,
    pub commit_latency: Option<HistogramSnapshot>,
    pub query_latency: Option<HistogramSnapshot>,
}

/// Everything the server and its database measured, frozen at one instant.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Time since the server started.
    pub uptime: Duration,
    /// Per-table (and per-query-label) metrics, sorted by name.
    pub tables: Vec<TableMetricsSnapshot>,
    /// Per-session metrics, in session creation order.
    pub sessions: Vec<SessionMetricsSnapshot>,
    /// The database's registry frozen ([`engine::Database::metrics`]: the
    /// engine's `db.*`, the `maintenance.*` series, this crate's
    /// `server.*`) plus `server.uptime_ns` — the one source every view
    /// above is read from. Exposition-ready via
    /// [`obs::MetricsSnapshot::to_text`] (Prometheus) or
    /// [`obs::MetricsSnapshot::to_json`].
    pub unified: obs::MetricsSnapshot,
}

/// A latency histogram that recorded anything.
fn latency(v: &MetricValue) -> Option<HistogramSnapshot> {
    match v {
        MetricValue::Histogram(h) if h.count > 0 => Some(h.clone()),
        _ => None,
    }
}

impl MetricsSnapshot {
    /// The typed views over one frozen registry snapshot.
    pub(crate) fn over(uptime: Duration, unified: obs::MetricsSnapshot) -> Self {
        let mut tables: BTreeMap<&str, TableMetricsSnapshot> = BTreeMap::new();
        let mut sessions: BTreeMap<u64, SessionMetricsSnapshot> = BTreeMap::new();
        for e in &unified.metrics {
            if let (Some(field), Some(name)) =
                (e.name.strip_prefix("server.table."), e.label("table"))
            {
                let t = tables.entry(name).or_insert_with(|| TableMetricsSnapshot {
                    name: name.to_string(),
                    ..Default::default()
                });
                match field {
                    "commit_latency_ns" => t.commit_latency = latency(&e.value),
                    "scan_latency_ns" => t.scan_latency = latency(&e.value),
                    _ => t.counters.set(field, &e.value),
                }
            } else if let (Some(field), Some(name), Some(id)) = (
                e.name.strip_prefix("server.session."),
                e.label("session"),
                e.label("id").and_then(|id| id.parse().ok()),
            ) {
                let s = sessions
                    .entry(id)
                    .or_insert_with(|| SessionMetricsSnapshot {
                        name: name.to_string(),
                        id,
                        ..Default::default()
                    });
                match field {
                    "queries" => s.queries = e.value.as_u64().unwrap_or(0),
                    "commit_latency_ns" => s.commit_latency = latency(&e.value),
                    "query_latency_ns" => s.query_latency = latency(&e.value),
                    _ => s.counters.set(field, &e.value),
                }
            }
        }
        MetricsSnapshot {
            uptime,
            tables: tables.into_values().collect(),
            sessions: sessions.into_values().collect(),
            unified,
        }
    }

    /// Total committed transactions across sessions.
    pub fn total_commits(&self) -> u64 {
        self.sessions.iter().map(|s| s.counters.commits).sum()
    }

    /// Total queries across sessions.
    pub fn total_queries(&self) -> u64 {
        self.sessions.iter().map(|s| s.queries).sum()
    }

    /// Committed transactions per second of uptime.
    pub fn commits_per_sec(&self) -> f64 {
        self.total_commits() as f64 / self.uptime.as_secs_f64().max(1e-9)
    }

    /// Queries per second of uptime.
    pub fn queries_per_sec(&self) -> f64 {
        self.total_queries() as f64 / self.uptime.as_secs_f64().max(1e-9)
    }
}

fn fmt_latency(
    f: &mut fmt::Formatter<'_>,
    label: &str,
    l: &Option<HistogramSnapshot>,
) -> fmt::Result {
    match l {
        Some(s) => write!(f, " {label}[{s}]"),
        None => Ok(()),
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "server: uptime {:.3}s, {} commits ({:.1}/s), {} queries ({:.1}/s)",
            self.uptime.as_secs_f64(),
            self.total_commits(),
            self.commits_per_sec(),
            self.total_queries(),
            self.queries_per_sec(),
        )?;
        for t in &self.tables {
            let c = &t.counters;
            write!(
                f,
                "  table {}: {} commits, {} aborts ({} conflicts), {} delays, {} rejects",
                t.name, c.commits, c.aborts, c.conflicts, c.delays, c.rejects
            )?;
            fmt_latency(f, "commit", &t.commit_latency)?;
            fmt_latency(f, "scan", &t.scan_latency)?;
            writeln!(f)?;
        }
        for s in &self.sessions {
            let c = &s.counters;
            write!(
                f,
                "  session {}: {} commits, {} aborts ({} conflicts), {} queries, {} delays, {} rejects",
                s.name, c.commits, c.aborts, c.conflicts, s.queries, c.delays, c.rejects
            )?;
            fmt_latency(f, "commit", &s.commit_latency)?;
            fmt_latency(f, "query", &s.query_latency)?;
            writeln!(f)?;
        }
        let m = |name: &str| self.unified.value(name).unwrap_or(0);
        writeln!(
            f,
            "  maintenance: {} flushes, {} checkpoints, {} compaction steps \
             ({} blocks merged / {} reused, {} stable bytes saved), {} errors",
            m("maintenance.flushes"),
            m("maintenance.checkpoints"),
            m("maintenance.compactions"),
            m("maintenance.compaction.blocks_merged"),
            m("maintenance.compaction.blocks_reused"),
            m("maintenance.compaction.bytes_saved"),
            m("maintenance.errors"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::Database;

    #[test]
    fn registry_snapshot_and_display() {
        let db = Database::new();
        let reg = db.registry();
        let t = Series::resolve(
            reg,
            "server.table",
            "scan_latency_ns",
            &[("table", "orders")],
        );
        t.commits.add(3);
        t.commit_latency.record(Duration::from_micros(120));
        let q = Series::resolve(reg, "server.table", "scan_latency_ns", &[("table", "q06")]);
        q.read_latency.record(Duration::from_micros(70));
        // two sessions sharing a name report separately, in creation order
        for (id, commits) in [("7", 3), ("12", 1)] {
            let labels = [("session", "rf-0"), ("id", id)];
            let s = Series::resolve(reg, "server.session", "query_latency_ns", &labels);
            s.commits.add(commits);
            s.read_latency.record(Duration::from_micros(50));
            reg.counter("server.session.queries", &labels).inc();
        }
        reg.counter(
            "maintenance.compactions",
            &[("table", "orders"), ("partition", "0")],
        )
        .add(2);
        reg.counter(
            "maintenance.compaction.blocks_reused",
            &[("table", "orders"), ("partition", "1")],
        )
        .add(11);
        let snap = MetricsSnapshot::over(Duration::from_secs(1), db.metrics());
        // query labels key `tables` beside table names, sorted by name
        let names: Vec<&str> = snap.tables.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["orders", "q06"]);
        assert_eq!(snap.tables[0].counters.commits, 3);
        assert_eq!(snap.tables[0].commit_latency.as_ref().unwrap().count, 1);
        assert!(snap.tables[0].scan_latency.is_none(), "nothing recorded");
        assert_eq!(snap.tables[1].scan_latency.as_ref().unwrap().count, 1);
        let ids: Vec<(u64, u64)> = snap
            .sessions
            .iter()
            .map(|s| (s.id, s.counters.commits))
            .collect();
        assert_eq!(ids, [(7, 3), (12, 1)]);
        assert!(snap.sessions.iter().all(|s| s.name == "rf-0"));
        assert_eq!(snap.total_commits(), 4);
        assert_eq!(snap.total_queries(), 2);
        assert!(snap.commits_per_sec() > 0.0);
        let text = snap.to_string();
        assert!(text.contains("table orders"), "{text}");
        assert!(text.contains("session rf-0"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert!(text.contains("2 compaction steps"), "{text}");
        assert!(text.contains("11 reused"), "{text}");
        // the views are read out of the unified snapshot
        let u = &snap.unified;
        let commits = u
            .get_labeled("server.table.commits", &[("table", "orders")])
            .unwrap();
        assert_eq!(commits.value.as_u64(), Some(3));
        let latency = u
            .get_labeled("server.table.commit_latency_ns", &[("table", "orders")])
            .unwrap();
        assert!(matches!(&latency.value, MetricValue::Histogram(h) if h.quantile(0.5) > Some(0)));
        assert_eq!(u.value("maintenance.compactions"), Some(2));
        assert_eq!(u.value("db.txn.seq"), Some(0));
        let prom = u.to_text();
        assert!(
            prom.contains("server_table_commits{table=\"orders\"} 3"),
            "{prom}"
        );
    }
}
