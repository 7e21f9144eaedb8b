//! The benchmark's own span recorder. A traced run wraps every call into a
//! crate's public API in a span (name, start, end, parent, op id), keeps
//! the spans in memory and writes them out as JSON lines when the run
//! ends. Timestamps come from `obs::trace::now_ns`, the clock the engine's
//! own trace events use, so both streams lie on one timeline.
//!
//! Span names are `<crate>.<call>`; the crate prefix is the layer.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, or `NO_PARENT`.
    parent: u32,
    /// Spans of one client operation (one scan, one transaction, one query
    /// round) share an id.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

/// One thread's recorder. `off()` records nothing and costs one branch per
/// call, so the untraced run shares the traced run's code path.
pub struct Tracer {
    on: bool,
    /// Distinguishes op ids of concurrent sessions (high bits).
    lane: u64,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false, 0)
    }

    pub fn new(on: bool, lane: u64) -> Tracer {
        Tracer {
            on,
            lane,
            inner: RefCell::default(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start the next client operation: later spans carry a fresh op id.
    pub fn next_op(&self) {
        if self.on {
            self.inner.borrow_mut().op += 1;
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let idx = inner.spans.len() as u32;
            let span = Span {
                name,
                start_ns: obs::trace::now_ns(),
                end_ns: 0,
                parent: inner.open.last().copied().unwrap_or(NO_PARENT),
                op: (self.lane << 48) | inner.op,
            };
            inner.spans.push(span);
            inner.open.push(idx);
            idx
        };
        let out = f();
        let mut inner = self.inner.borrow_mut();
        inner.spans[idx as usize].end_ns = obs::trace::now_ns();
        inner.open.pop();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// Everything one traced run recorded: the harness spans of every thread
/// plus the engine's own trace events.
#[derive(Default)]
pub struct Recording {
    /// Each thread's spans; parents index into the same inner vector.
    threads: Vec<Vec<Span>>,
    pub events: Vec<obs::TraceEvent>,
    /// Records the engine's trace rings dropped while this was recorded.
    pub dropped: u64,
}

impl Recording {
    pub fn add_thread(&mut self, spans: Vec<Span>) {
        self.threads.push(spans);
    }

    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.threads.iter().flatten()
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Durations of the engine's own span events of `kind`, in milliseconds.
    pub fn event_durations_ms(&self, kind: obs::TraceKind) -> Vec<f64> {
        self.events
            .iter()
            .filter(|e| e.kind == kind && e.dur_ns > 0)
            .map(|e| e.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for spans in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if s.parent != NO_PARENT {
                    child_ns[s.parent as usize] += s.dur_ns();
                }
            }
            for (s, children) in spans.iter().zip(child_ns) {
                let t = out.entry(s.name).or_default();
                t.count += 1;
                t.total_ns += s.dur_ns();
                t.self_ns += s.dur_ns().saturating_sub(children);
            }
        }
        out
    }

    /// Write every span and engine event as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (t, spans) in self.threads.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::Num(s.parent as f64)
                };
                let line = Json::obj([
                    ("src", Json::str("harness")),
                    ("thread", Json::Num(t as f64)),
                    ("id", Json::Num(i as f64)),
                    ("parent", parent),
                    ("op", Json::Num(s.op as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ]);
                writeln!(out, "{}", line.to_line())?;
            }
        }
        for e in &self.events {
            let line = Json::obj([
                ("src", Json::str("engine")),
                ("thread", Json::Num(e.thread as f64)),
                ("name", Json::str(e.kind.name())),
                ("start_ns", Json::Num(e.ts_ns as f64)),
                ("end_ns", Json::Num((e.ts_ns + e.dur_ns) as f64)),
                ("seq", Json::Num(e.seq as f64)),
                ("a", Json::Num(e.a as f64)),
                ("b", Json::Num(e.b as f64)),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}

/// Turns the engine's own tracing on for the life of the guard and drains
/// its per-thread rings into memory in the background, so long traced
/// phases do not overflow them.
pub struct EngineTrace {
    sink: std::sync::Arc<obs::MemorySink>,
    drain: obs::TraceDrain,
    dropped_before: u64,
}

impl EngineTrace {
    pub fn start() -> EngineTrace {
        // discard records left over from an earlier phase
        obs::trace::drain();
        let sink = std::sync::Arc::new(obs::MemorySink::new());
        let dropped_before = obs::trace::dropped();
        obs::trace::set_enabled(true);
        let drain = obs::TraceDrain::start(sink.clone(), std::time::Duration::from_millis(5));
        EngineTrace {
            sink,
            drain,
            dropped_before,
        }
    }

    /// Stop tracing; the recording holds the engine's events and how many
    /// records the rings dropped while this guard was live. The caller adds
    /// its threads' harness spans.
    pub fn stop(self) -> Recording {
        obs::trace::set_enabled(false);
        self.drain.stop();
        Recording {
            threads: Vec::new(),
            events: self.sink.events(),
            dropped: obs::trace::dropped() - self.dropped_before,
        }
    }
}

/// Run `f` on this thread with the harness recorder and the engine's own
/// tracing on; returns what `f` returned and everything recorded.
pub fn traced<T>(f: impl FnOnce(&Tracer) -> T) -> (T, Recording) {
    let tracer = Tracer::new(true, 0);
    let engine = EngineTrace::start();
    let out = f(&tracer);
    let mut rec = engine.stop();
    rec.add_thread(tracer.into_spans());
    (out, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let t = Tracer::new(true, 1);
        t.next_op();
        t.call("engine.outer", || {
            t.call("exec.inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.call("exec.inner", || ());
        });
        let mut rec = Recording::default();
        rec.add_thread(t.into_spans());
        let totals = rec.totals();
        let outer = &totals["engine.outer"];
        let inner = &totals["exec.inner"];
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert!(rec.spans().all(|s| s.op == (1 << 48) | 1));
        assert_eq!(rec.durations_ms("exec.inner").len(), 2);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.call("engine.x", || 7), 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn spans_round_trip_through_the_file() {
        let t = Tracer::new(true, 0);
        t.call("engine.a", || t.call("exec.b", || ()));
        let mut rec = Recording::default();
        rec.add_thread(t.into_spans());
        let dir = crate::env::TempDir::create("trace-test").unwrap();
        let path = dir.path().join("spans.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("name").unwrap().as_str(), Some("engine.a"));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
    }
}
