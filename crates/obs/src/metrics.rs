//! Unified metrics registry: counters, gauges, and histograms keyed by
//! dotted name plus sorted labels.
//!
//! Naming scheme (see ARCHITECTURE.md § Observability):
//! `<subsystem>.<noun>[_<unit>]`, e.g. `db.wal.commits`,
//! `db.io.bytes_read`, `server.table.commit_latency_ns{table="orders"}`.
//! Labels are `(key, value)` pairs; the registry sorts them so label
//! order never creates duplicate series.
//!
//! The registry is a live store: a subsystem resolves its handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) once, where it is built, and
//! records into them where the event happens. One `Registry` per
//! database (`engine::Database::registry`).
//!
//! [`MetricsSnapshot`] is the frozen form with two expositions:
//! [`MetricsSnapshot::to_text`] (Prometheus-style) and
//! [`MetricsSnapshot::to_json`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Sub-buckets per power of two, as a bit count: each power-of-two range
/// `[2^e, 2^(e+1))` is split into `2^SUB_BITS` equal-width buckets.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;

/// Histogram buckets: one per value below 16 (exact), then eight
/// equal-width buckets per power of two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Last-write-wins gauge.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Lock-free log-linear histogram over all of `u64` — the one latency
/// recorder. Values below 16 are counted exactly; above, a bucket is
/// never wider than an eighth of its lower bound, so every quantile
/// ([`HistogramSnapshot::quantile`]) is within **12.5 %** (relative) of
/// the exact nearest-rank value. Count, sum and max are exact.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (((e - SUB_BITS + 1) as usize) << SUB_BITS) + sub
}

/// Inclusive `(low, high)` value bounds of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64);
    }
    let shift = (i >> SUB_BITS) - 1;
    let lo = ((SUB + (i & (SUB - 1))) as u64) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Record one duration, in nanoseconds.
    pub fn record(&self, d: Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Freeze the current buckets/count/sum/max.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// Frozen histogram state. Merging snapshots ([`HistogramSnapshot::merge`])
/// is associative and commutative: buckets, count, and sum add, max is
/// the larger. `Display` summarises it as a latency in nanoseconds
/// (count, p50/p95/p99, max).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Exact sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Exact largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Combine two snapshots (element-wise bucket addition).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let n = self.buckets.len().max(other.buckets.len());
        let get = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
        HistogramSnapshot {
            buckets: (0..n)
                .map(|i| get(&self.buckets, i) + get(&other.buckets, i))
                .collect(),
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`, nearest rank): the upper bound
    /// of the bucket holding it, capped at the exact max — never below
    /// the exact value and less than 12.5 % above it, exact below 16.
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bounds(i).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Mean observed value; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |q: f64| self.quantile(q).unwrap_or(0) as f64 / 1e6;
        write!(
            f,
            "n={} p50={:.3}ms p95={:.3}ms p99={:.3}ms max={:.3}ms",
            self.count,
            ms(0.50),
            ms(0.95),
            ms(0.99),
            self.max as f64 / 1e6
        )
    }
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

fn key_of(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    Key {
        name: name.to_string(),
        labels,
    }
}

/// Live metric store. Instruments are registered (get-or-create) by
/// dotted name + labels and shared via `Arc`, so hot paths hold the
/// instrument and never touch the registry map again.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<Key, Handle>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or<T, F>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        pick: fn(&Handle) -> Option<Arc<T>>,
        make: F,
    ) -> Arc<T>
    where
        F: Fn() -> (Arc<T>, Handle),
    {
        let key = key_of(name, labels);
        if let Some(h) = self.metrics.read().unwrap().get(&key) {
            if let Some(t) = pick(h) {
                return t;
            }
        }
        let mut w = self.metrics.write().unwrap();
        if let Some(t) = w.get(&key).and_then(pick) {
            return t;
        }
        // Absent, or registered earlier as a different instrument kind
        // (a caller bug): replace so both callers keep working.
        let (t, h) = make();
        w.insert(key, h);
        t
    }

    /// Get-or-create a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or(
            name,
            labels,
            |h| match h {
                Handle::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::default());
                (c.clone(), Handle::Counter(c))
            },
        )
    }

    /// Get-or-create a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or(
            name,
            labels,
            |h| match h {
                Handle::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::default());
                (g.clone(), Handle::Gauge(g))
            },
        )
    }

    /// Get-or-create a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.get_or(
            name,
            labels,
            |h| match h {
                Handle::Histogram(x) => Some(x.clone()),
                _ => None,
            },
            || {
                let x = Arc::new(Histogram::new());
                (x.clone(), Handle::Histogram(x))
            },
        )
    }

    /// Freeze every registered metric, sorted by name then labels.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.read().unwrap();
        MetricsSnapshot {
            metrics: m
                .iter()
                .map(|(k, h)| MetricEntry {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: match h {
                        Handle::Counter(c) => MetricValue::Counter(c.get()),
                        Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                        Handle::Histogram(x) => MetricValue::Histogram(x.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// One frozen metric's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// Scalar value of a counter or gauge (`None` for histograms).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            MetricValue::Histogram(_) => None,
        }
    }
}

/// One frozen metric: name, sorted labels, value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// Dotted metric name.
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: MetricValue,
}

impl MetricEntry {
    /// The value of label `key`, if the series carries it.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Everything a [`Registry`] held, frozen at one instant, with
/// Prometheus-style text and JSON expositions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// All metrics, sorted by name then labels.
    pub metrics: Vec<MetricEntry>,
}

fn sanitize(name: &str) -> String {
    name.replace('.', "_")
}

fn label_text(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

impl MetricsSnapshot {
    /// First entry named `name` (any labels).
    pub fn get(&self, name: &str) -> Option<&MetricEntry> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Entry with exactly `name` and `labels` (order-insensitive).
    pub fn get_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricEntry> {
        let key = key_of(name, labels);
        self.metrics
            .iter()
            .find(|m| m.name == key.name && m.labels == key.labels)
    }

    /// Sum of the counters/gauges named `name` across every label set
    /// (a labelled series reads as its total), if any is present.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .filter_map(|m| m.value.as_u64())
            .reduce(u64::saturating_add)
    }

    /// Add (or replace) one series, keeping the snapshot sorted — how a
    /// snapshot is completed with values read at snapshot time from state
    /// the registry does not own.
    pub fn insert(&mut self, name: &str, labels: &[(&str, &str)], value: MetricValue) {
        let Key { name, labels } = key_of(name, labels);
        let at = self
            .metrics
            .binary_search_by(|m| (&m.name, &m.labels).cmp(&(&name, &labels)));
        let entry = MetricEntry {
            name,
            labels,
            value,
        };
        match at {
            Ok(i) => self.metrics[i] = entry,
            Err(i) => self.metrics.insert(i, entry),
        }
    }

    /// Prometheus-style text exposition. Dots in names become
    /// underscores; histograms expand to `_count`, `_sum`, and
    /// cumulative `_bucket{le="..."}` series.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let name = sanitize(&m.name);
            match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&format!("{name}{} {v}\n", label_text(&m.labels, None)));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{name}_count{} {}\n",
                        label_text(&m.labels, None),
                        h.count
                    ));
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        label_text(&m.labels, None),
                        h.sum
                    ));
                    let mut cum = 0;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 && i + 1 != h.buckets.len() {
                            continue; // keep the exposition readable
                        }
                        cum += c;
                        let le = if i + 1 == h.buckets.len() {
                            "+Inf".to_string()
                        } else {
                            bucket_bounds(i).1.to_string()
                        };
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}\n",
                            label_text(&m.labels, Some(("le", le)))
                        ));
                    }
                }
            }
        }
        out
    }

    /// JSON exposition: an array of `{name, labels, type, value}`
    /// objects (histograms carry `count`, `sum`, `max`, `buckets`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":{}", json_str(&m.name)));
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in m.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", json_str(k), json_str(v)));
            }
            out.push('}');
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(",\"type\":\"gauge\",\"value\":{v}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                        h.count, h.sum, h.max
                    ));
                    // Sparse: [bucket_index, count] pairs.
                    let mut first = true;
                    for (bi, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push_str(&format!("[{bi},{c}]"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push(']');
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_lookup() {
        let r = Registry::new();
        r.counter("wal.commits", &[]).add(3);
        r.counter("wal.commits", &[]).inc();
        r.gauge("table.delta_bytes", &[("table", "orders")])
            .set(512);
        // Label order must not create a second series.
        r.counter("x", &[("a", "1"), ("b", "2")]).inc();
        r.counter("x", &[("b", "2"), ("a", "1")]).inc();
        let snap = r.snapshot();
        assert_eq!(snap.value("wal.commits"), Some(4));
        assert_eq!(
            snap.get_labeled("table.delta_bytes", &[("table", "orders")])
                .map(|m| m.value.clone()),
            Some(MetricValue::Gauge(512))
        );
        assert_eq!(
            snap.get_labeled("x", &[("a", "1"), ("b", "2")])
                .map(|m| m.value.clone()),
            Some(MetricValue::Counter(2))
        );
        // a labelled name reads as the sum of its series
        r.gauge("table.delta_bytes", &[("table", "lineitem")])
            .set(8);
        let mut snap = r.snapshot();
        assert_eq!(snap.value("table.delta_bytes"), Some(520));
        assert_eq!(snap.value("absent"), None);
        // snapshot-time series slot in sorted, replacing a duplicate
        snap.insert("db.io.bytes_read", &[], MetricValue::Counter(9));
        snap.insert("x", &[("b", "2"), ("a", "1")], MetricValue::Counter(5));
        assert_eq!(snap.metrics[0].name, "db.io.bytes_read");
        assert_eq!(snap.value("x"), Some(5));
        let sorted = snap
            .metrics
            .windows(2)
            .all(|w| (&w[0].name, &w[0].labels) < (&w[1].name, &w[1].labels));
        assert!(sorted, "{snap:?}");
        let entry = snap.get("table.delta_bytes").unwrap();
        assert_eq!(entry.label("table"), Some("lineitem"));
        assert_eq!(entry.label("q"), None);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.observe(v);
            }
            h.snapshot()
        };
        let a = mk(&[0, 1, 5, 1000]);
        let b = mk(&[2, 2, 900_000]);
        let c = mk(&[u64::MAX, 7]);
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_eq!(left, right, "associative");
        assert_eq!(a.merge(&b), b.merge(&a), "commutative");
        assert_eq!(left.count, 9);
        assert_eq!(
            left.sum,
            0u64.wrapping_add(1 + 5 + 1000 + 2 + 2 + 900_000 + 7)
                .wrapping_add(u64::MAX)
        );
    }

    #[test]
    fn histogram_quantiles_bound_observations() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        let p50 = s.quantile(0.5).unwrap();
        let p99 = s.quantile(0.99).unwrap();
        assert!((500..=1023).contains(&p50), "p50 bucket bound: {p50}");
        assert!((990..=1023).contains(&p99), "p99 bucket bound: {p99}");
        assert!(p50 <= p99);
        assert_eq!(s.mean(), Some(500.5));
        assert_eq!(s.max, 1000);
        assert!(s.to_string().contains("p99"), "{s}");
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
    }

    /// Fixed-seed property: for random values (0, 1 and `u64::MAX`
    /// included) every quantile is at or above the exact nearest-rank
    /// value and less than 12.5 % over it, values below 16 come back
    /// exactly, count / sum / max are exact, and merging the snapshots of
    /// a random split equals the snapshot of the whole — in any order.
    #[test]
    fn histogram_quantiles_stay_within_the_stated_error() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let n = 1 + next() % 600;
            let mut vals: Vec<u64> = (0..n)
                .map(|_| match next() % 4 {
                    0 => next() % 16,
                    1 => next() % 100_000,
                    2 => next() >> (next() % 64),
                    _ => next(),
                })
                .collect();
            if round % 3 == 0 {
                vals.extend([0, 1, u64::MAX]);
            }
            let (whole, a, b) = (Histogram::new(), Histogram::new(), Histogram::new());
            for &v in &vals {
                whole.observe(v);
                if next() % 2 == 0 { &a } else { &b }.observe(v);
            }
            let s = whole.snapshot();
            let (sa, sb) = (a.snapshot(), b.snapshot());
            assert_eq!(sa.merge(&sb), s, "round {round}: merge of a split");
            assert_eq!(sb.merge(&sa), s, "round {round}: commutative");
            vals.sort_unstable();
            assert_eq!(s.count, vals.len() as u64);
            assert_eq!(s.max, *vals.last().unwrap());
            assert_eq!(s.sum, vals.iter().fold(0u64, |acc, &v| acc.wrapping_add(v)));
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
                let exact = vals[rank - 1];
                let got = s.quantile(q).unwrap();
                assert!(
                    got >= exact && got - exact <= exact / 8,
                    "round {round} q={q}: {got} vs exact {exact}"
                );
                if exact < 16 {
                    assert_eq!(got, exact, "round {round} q={q}: small values are exact");
                }
            }
        }
        let c = {
            let h = Histogram::new();
            h.record(Duration::from_micros(3));
            h.snapshot()
        };
        assert_eq!((c.count, c.sum, c.quantile(0.5)), (1, 3000, Some(3000)));
    }

    #[test]
    fn concurrent_histogram_and_counter_updates() {
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    let c = r.counter("ops", &[]);
                    let h = r.histogram("lat", &[]);
                    for i in 0..10_000u64 {
                        c.inc();
                        h.observe(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.value("ops"), Some(40_000));
        match &snap.get("lat").unwrap().value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 40_000);
                assert_eq!(h.sum, 4 * (0..10_000u64).sum::<u64>());
                assert_eq!(h.buckets.iter().sum::<u64>(), 40_000);
            }
            v => panic!("expected histogram, got {v:?}"),
        }
    }

    #[test]
    fn text_and_json_expositions() {
        let r = Registry::new();
        r.counter("wal.commits", &[("table", "t\"1")]).add(7);
        r.histogram("commit.latency_ns", &[]).observe(3);
        let snap = r.snapshot();
        let text = snap.to_text();
        assert!(text.contains("wal_commits{table=\"t\\\"1\"} 7"), "{text}");
        assert!(text.contains("commit_latency_ns_count 1"), "{text}");
        assert!(text.contains("commit_latency_ns_sum 3"), "{text}");
        assert!(
            text.contains("commit_latency_ns_bucket{le=\"3\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("commit_latency_ns_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        let json = snap.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"name\":\"wal.commits\""), "{json}");
        assert!(json.contains("\"type\":\"histogram\""), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
    }
}
