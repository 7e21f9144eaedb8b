//! Structured tracing: fixed-size records in lock-free per-thread rings.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** Every emission site is gated on
//!    [`enabled`] — a single relaxed atomic load. The `span!`/`event!`
//!    macros expand to that load and nothing else on the off path.
//! 2. **No locks on the hot path.** Each emitting thread owns a
//!    single-producer ring (`Ring`); the producer touches only its own
//!    head index (release store) and reads the drainer's tail (acquire
//!    load). A full ring drops *whole* records and counts them — it
//!    never blocks and never tears a record.
//! 3. **Fixed-size records.** A [`TraceRecord`] is a flat `Copy` struct;
//!    strings (table names) are interned once into small integer ids via
//!    [`intern`] and resolved back at decode time.
//!
//! Draining is cooperative: [`drain`] snapshots every registered ring
//! (serialized by the registry mutex, so concurrent drains cannot race
//! on a tail index), sorts by timestamp, and hands batches to a
//! [`TraceSink`]. [`TraceDrain`] wraps that in a background thread for
//! long-running processes.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::mem::MaybeUninit;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `table` id meaning "no table attached" (interner ids start at 1).
pub const NO_TABLE: u32 = 0;
/// `part` value meaning "no partition attached".
pub const NO_PART: u32 = u32::MAX;

/// Records each per-thread ring can hold before dropping new ones.
pub const RING_CAPACITY: usize = 16 * 1024;

/// What a trace record describes. Discriminants are stable and stored
/// raw in [`TraceRecord::kind`]; [`TraceKind::name`] gives the dotted
/// name used by the JSON sink and the docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum TraceKind {
    /// Whole engine commit: span over prepare → publish → durable wait.
    /// `a` = partitions touched, `b` = WAL entries logged.
    Commit = 1,
    /// Commit bytes handed to the group-commit buffer (under the group
    /// lock's caller). `a` = flush ticket returned.
    WalEnqueue = 2,
    /// One leader flush window: span over the batched `append_raw`.
    /// `a` = records in the batch, `b` = batch bytes.
    WalFlushWindow = 3,
    /// A committer's durable ack. `a` = ticket, `dur_ns` = wait time,
    /// `seq` = the durable ticket watermark at the ack.
    WalDurable = 4,
    /// Maintenance step over every block of a partition (a checkpoint),
    /// phase 1: delta pinned under the commit guard. All six maintenance
    /// kinds carry `a`/`b` = the step's block range `[b0, b1)`.
    CheckpointPin = 5,
    /// Checkpoint phase 2: span over merge + image publish (off-lock).
    CheckpointMerge = 6,
    /// Checkpoint phase 3: WAL marker + stable swap installed.
    CheckpointInstall = 7,
    /// The same step over a sub-partition range (a compaction), phase 1:
    /// pin.
    CompactionPin = 8,
    /// Compaction phase 2: span over ranged merge + splice + publish.
    CompactionMerge = 9,
    /// Compaction phase 3: WAL marker + install.
    CompactionInstall = 10,
    /// Admission control made a writer wait. `dur_ns` = time waited,
    /// `a` = delta bytes at admission, `b` = soft limit.
    AdmissionDelay = 11,
    /// Admission control rejected a writer with backpressure.
    /// `a` = delta bytes at admission, `b` = hard limit.
    AdmissionReject = 12,
    /// Recovery adopted a checkpoint image for one partition.
    /// `seq` = image sequence, `a` = residual WAL entries replayed.
    RecoveryImageAdopt = 13,
    /// Recovery replayed WAL commits into one partition's delta.
    /// `a` = entries replayed, `b` = commits, `seq` = last sequence.
    RecoveryWalReplay = 14,
    // 15 and 16 were the retired slow-commit / slow-scan events; never
    // reuse them
    /// One position resolution of a DML statement — a rid gather, a key
    /// ranking or a predicate's victim scan: span over the resolution.
    /// `a` = rids or keys resolved, `b` = stable blocks decoded; `part`
    /// is set when the resolution stayed within one partition.
    DmlResolve = 17,
}

impl TraceKind {
    /// Dotted name, e.g. `"wal.flush_window"`.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Commit => "commit",
            TraceKind::WalEnqueue => "wal.enqueue",
            TraceKind::WalFlushWindow => "wal.flush_window",
            TraceKind::WalDurable => "wal.durable",
            TraceKind::CheckpointPin => "checkpoint.pin",
            TraceKind::CheckpointMerge => "checkpoint.merge",
            TraceKind::CheckpointInstall => "checkpoint.install",
            TraceKind::CompactionPin => "compaction.pin",
            TraceKind::CompactionMerge => "compaction.merge",
            TraceKind::CompactionInstall => "compaction.install",
            TraceKind::AdmissionDelay => "admission.delay",
            TraceKind::AdmissionReject => "admission.reject",
            TraceKind::RecoveryImageAdopt => "recovery.image_adopt",
            TraceKind::RecoveryWalReplay => "recovery.wal_replay",
            TraceKind::DmlResolve => "dml.resolve",
        }
    }

    /// Inverse of the raw discriminant stored in [`TraceRecord::kind`].
    pub fn from_u16(v: u16) -> Option<TraceKind> {
        Some(match v {
            1 => TraceKind::Commit,
            2 => TraceKind::WalEnqueue,
            3 => TraceKind::WalFlushWindow,
            4 => TraceKind::WalDurable,
            5 => TraceKind::CheckpointPin,
            6 => TraceKind::CheckpointMerge,
            7 => TraceKind::CheckpointInstall,
            8 => TraceKind::CompactionPin,
            9 => TraceKind::CompactionMerge,
            10 => TraceKind::CompactionInstall,
            11 => TraceKind::AdmissionDelay,
            12 => TraceKind::AdmissionReject,
            13 => TraceKind::RecoveryImageAdopt,
            14 => TraceKind::RecoveryWalReplay,
            17 => TraceKind::DmlResolve,
            _ => return None,
        })
    }
}

/// One fixed-size trace record (64 bytes, `Copy`).
///
/// Span records carry a non-zero `dur_ns`; point events leave it zero.
/// `table` is an [`intern`] id (`NO_TABLE` when absent), `part` a
/// partition index (`NO_PART` when absent). `a`/`b` are kind-specific
/// payloads documented on each [`TraceKind`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds; 0 for point events.
    pub dur_ns: u64,
    /// Raw [`TraceKind`] discriminant.
    pub kind: u16,
    /// Small id of the emitting thread (assigned on first emission).
    pub thread: u16,
    /// Interned table name, or [`NO_TABLE`].
    pub table: u32,
    /// Partition index, or [`NO_PART`].
    pub part: u32,
    /// Commit / checkpoint sequence number, 0 when not applicable.
    pub seq: u64,
    /// Kind-specific payload (see [`TraceKind`] docs).
    pub a: u64,
    /// Kind-specific payload (see [`TraceKind`] docs).
    pub b: u64,
}

impl TraceRecord {
    /// A record of `kind` stamped with the current trace timestamp.
    pub fn new(kind: TraceKind) -> TraceRecord {
        TraceRecord {
            ts_ns: now_ns(),
            dur_ns: 0,
            kind: kind as u16,
            thread: 0,
            table: NO_TABLE,
            part: NO_PART,
            seq: 0,
            a: 0,
            b: 0,
        }
    }
}

// ---------------------------------------------------------------------
// Global enable flag and clock.

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is on. This is the *only* cost instrumented code
/// pays when tracing is off: one relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first trace timestamp of the process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------
// String interner (table names → u32 ids).

struct Interner {
    map: HashMap<String, u32>,
    names: Vec<String>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            // Id 0 is NO_TABLE.
            names: vec![String::new()],
        })
    })
}

/// Intern `name`, returning a stable non-zero id for trace records.
pub fn intern(name: &str) -> u32 {
    if let Some(&id) = interner().read().unwrap().map.get(name) {
        return id;
    }
    let mut w = interner().write().unwrap();
    if let Some(&id) = w.map.get(name) {
        return id;
    }
    let id = w.names.len() as u32;
    w.names.push(name.to_string());
    w.map.insert(name.to_string(), id);
    id
}

/// Resolve an interned id back to its string (`None` for [`NO_TABLE`]
/// or unknown ids).
pub fn resolve(id: u32) -> Option<String> {
    if id == NO_TABLE {
        return None;
    }
    interner().read().unwrap().names.get(id as usize).cloned()
}

// ---------------------------------------------------------------------
// Per-thread SPSC ring buffers.

struct Ring {
    slots: Box<[UnsafeCell<MaybeUninit<TraceRecord>>]>,
    /// Producer cursor (owned by the emitting thread; release-stored
    /// after the slot is written so the drainer sees complete records).
    head: AtomicUsize,
    /// Consumer cursor (advanced only under the registry lock).
    tail: AtomicUsize,
    thread: u16,
}

// The producer writes only slots in [head, head+1) that the consumer
// (which reads [tail, head)) cannot touch, and cursor updates use
// release/acquire pairs; records are `Copy`, so a stale read of an
// already-consumed slot cannot occur and drops are whole-record.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(thread: u16) -> Ring {
        let slots = (0..RING_CAPACITY)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            thread,
        }
    }

    /// Producer side: called only from the owning thread.
    fn push(&self, rec: TraceRecord) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= self.slots.len() {
            return false; // full: drop the whole record
        }
        let slot = &self.slots[head % self.slots.len()];
        unsafe { (*slot.get()).write(rec) };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side: serialized by the registry lock.
    fn drain_into(&self, out: &mut Vec<TraceRecord>) {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        let mut i = tail;
        while i != head {
            let slot = &self.slots[i % self.slots.len()];
            out.push(unsafe { (*slot.get()).assume_init_read() });
            i = i.wrapping_add(1);
        }
        self.tail.store(head, Ordering::Release);
    }
}

struct RingRegistry {
    rings: Mutex<Vec<Arc<Ring>>>,
    next_thread: AtomicUsize,
    dropped: AtomicU64,
}

fn registry() -> &'static RingRegistry {
    static REGISTRY: OnceLock<RingRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| RingRegistry {
        rings: Mutex::new(Vec::new()),
        next_thread: AtomicUsize::new(1),
        dropped: AtomicU64::new(0),
    })
}

thread_local! {
    static MY_RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
}

/// Emit one record into the calling thread's ring (no-op when tracing
/// is off). The record's `thread` field is filled in here.
pub fn emit(mut rec: TraceRecord) {
    if !enabled() {
        return;
    }
    MY_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let reg = registry();
            let id = reg.next_thread.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(Ring::new((id & 0xffff) as u16));
            reg.rings.lock().unwrap().push(ring.clone());
            ring
        });
        rec.thread = ring.thread;
        if !ring.push(rec) {
            registry().dropped.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Records dropped so far because a ring was full (whole records only).
pub fn dropped() -> u64 {
    registry().dropped.load(Ordering::Relaxed)
}

/// Drain every thread's ring, returning all pending records sorted by
/// timestamp. Concurrent drains are serialized; emission keeps going
/// lock-free while a drain runs.
pub fn drain() -> Vec<TraceRecord> {
    let mut out = Vec::new();
    let rings = registry().rings.lock().unwrap();
    for ring in rings.iter() {
        ring.drain_into(&mut out);
    }
    drop(rings);
    out.sort_by_key(|r| r.ts_ns);
    out
}

/// Drain into `sink` (skipping the call entirely when nothing is
/// pending). Returns how many records were delivered.
pub fn drain_to(sink: &dyn TraceSink) -> usize {
    let batch = drain();
    if !batch.is_empty() {
        sink.record(&batch);
    }
    batch.len()
}

// ---------------------------------------------------------------------
// Spans.

/// RAII guard emitting a span record (with `dur_ns` filled in) on drop.
/// Created by the `obs::span!` macro; [`SpanGuard::disabled`] is the
/// no-op variant used when tracing is off.
pub struct SpanGuard {
    state: Option<(TraceRecord, Instant)>,
}

impl SpanGuard {
    /// A live span: `rec` is emitted on drop with its duration set.
    pub fn started(rec: TraceRecord) -> SpanGuard {
        SpanGuard {
            state: Some((rec, Instant::now())),
        }
    }

    /// The no-op span used when tracing is off.
    pub fn disabled() -> SpanGuard {
        SpanGuard { state: None }
    }

    /// Set the sequence number after the span started.
    pub fn set_seq(&mut self, v: u64) {
        if let Some((rec, _)) = &mut self.state {
            rec.seq = v;
        }
    }

    /// Drop the span without emitting anything (e.g. on error paths
    /// that emit their own record).
    pub fn cancel(&mut self) {
        self.state = None;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((mut rec, t0)) = self.state.take() {
            rec.dur_ns = t0.elapsed().as_nanos() as u64;
            emit(rec);
        }
    }
}

// ---------------------------------------------------------------------
// Sinks and decoding.

/// Where drained trace batches go.
pub trait TraceSink: Send + Sync {
    /// Deliver one drained batch (already timestamp-sorted).
    fn record(&self, batch: &[TraceRecord]);
}

/// A decoded trace record: kind resolved, table id resolved to a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Span duration (0 for point events).
    pub dur_ns: u64,
    /// Decoded kind.
    pub kind: TraceKind,
    /// Emitting thread id.
    pub thread: u16,
    /// Table name, if the record carried one.
    pub table: Option<String>,
    /// Partition index, if the record carried one.
    pub part: Option<u32>,
    /// Sequence number (0 when not applicable).
    pub seq: u64,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

/// Decode a raw record (resolving kind and table name). Returns `None`
/// for unknown kinds.
pub fn decode(rec: &TraceRecord) -> Option<TraceEvent> {
    Some(TraceEvent {
        ts_ns: rec.ts_ns,
        dur_ns: rec.dur_ns,
        kind: TraceKind::from_u16(rec.kind)?,
        thread: rec.thread,
        table: resolve(rec.table),
        part: (rec.part != NO_PART).then_some(rec.part),
        seq: rec.seq,
        a: rec.a,
        b: rec.b,
    })
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>12}ns {}", self.ts_ns, self.kind.name())?;
        if let Some(t) = &self.table {
            write!(f, " table={t}")?;
        }
        if let Some(p) = self.part {
            write!(f, " part={p}")?;
        }
        if self.seq != 0 {
            write!(f, " seq={}", self.seq)?;
        }
        if self.dur_ns != 0 {
            write!(f, " dur={}ns", self.dur_ns)?;
        }
        write!(f, " a={} b={}", self.a, self.b)
    }
}

/// In-memory sink for tests: accumulates every drained record.
#[derive(Default)]
pub struct MemorySink {
    records: Mutex<Vec<TraceRecord>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Copy of everything recorded so far.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().unwrap().clone()
    }

    /// Everything recorded so far, decoded (unknown kinds skipped).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.records().iter().filter_map(decode).collect()
    }
}

impl TraceSink for MemorySink {
    fn record(&self, batch: &[TraceRecord]) {
        self.records.lock().unwrap().extend_from_slice(batch);
    }
}

fn write_json_line(out: &mut impl std::io::Write, e: &TraceEvent) -> std::io::Result<()> {
    write!(
        out,
        "{{\"ts_ns\":{},\"kind\":\"{}\"",
        e.ts_ns,
        e.kind.name()
    )?;
    if e.dur_ns != 0 {
        write!(out, ",\"dur_ns\":{}", e.dur_ns)?;
    }
    if let Some(t) = &e.table {
        write!(
            out,
            ",\"table\":\"{}\"",
            t.replace('\\', "\\\\").replace('"', "\\\"")
        )?;
    }
    if let Some(p) = e.part {
        write!(out, ",\"part\":{p}")?;
    }
    if e.seq != 0 {
        write!(out, ",\"seq\":{}", e.seq)?;
    }
    writeln!(
        out,
        ",\"a\":{},\"b\":{},\"thread\":{}}}",
        e.a, e.b, e.thread
    )
}

/// Line-JSON file sink for operations: one JSON object per record.
pub struct JsonLinesSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonLinesSink {
    /// Create (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonLinesSink> {
        Ok(JsonLinesSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl TraceSink for JsonLinesSink {
    fn record(&self, batch: &[TraceRecord]) {
        let mut out = self.out.lock().unwrap();
        for rec in batch {
            if let Some(e) = decode(rec) {
                let _ = write_json_line(&mut *out, &e);
            }
        }
        let _ = out.flush();
    }
}

// ---------------------------------------------------------------------
// Background drain thread.

/// Background thread draining the rings into a sink on an interval.
/// Stopping (or dropping) performs one final drain so no enabled-time
/// records are left behind.
pub struct TraceDrain {
    stop: Arc<AtomicBool>,
    sink: Arc<dyn TraceSink>,
    handle: Option<JoinHandle<()>>,
}

impl TraceDrain {
    /// Start draining into `sink` every `interval`.
    pub fn start(sink: Arc<dyn TraceSink>, interval: Duration) -> TraceDrain {
        let stop = Arc::new(AtomicBool::new(false));
        let (s2, k2) = (stop.clone(), sink.clone());
        let handle = std::thread::Builder::new()
            .name("obs-trace-drain".into())
            .spawn(move || {
                while !s2.load(Ordering::Relaxed) {
                    drain_to(&*k2);
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn trace drain thread");
        TraceDrain {
            stop,
            sink,
            handle: Some(handle),
        }
    }

    /// Stop the thread and run one final drain.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
            drain_to(&*self.sink);
        }
    }
}

impl Drop for TraceDrain {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace layer is process-global; tests that enable it and
    // drain must not interleave. (Other test binaries are separate
    // processes and unaffected.)
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn every_kind_roundtrips_and_retired_numbers_stay_unused() {
        let kinds: Vec<TraceKind> = (0..=u8::MAX as u16)
            .filter_map(TraceKind::from_u16)
            .collect();
        assert_eq!(kinds.len(), 15);
        let mut names = std::collections::HashSet::new();
        for k in kinds {
            assert_eq!(TraceKind::from_u16(k as u16), Some(k));
            assert!(names.insert(k.name()), "{k:?}: duplicate name {}", k.name());
        }
        assert_eq!(TraceKind::from_u16(15), None);
        assert_eq!(TraceKind::from_u16(16), None);
        assert_eq!(TraceKind::DmlResolve as u16, 17);
    }

    #[test]
    fn disabled_is_a_noop() {
        let _g = serial();
        set_enabled(false);
        drain();
        emit(TraceRecord::new(TraceKind::Commit));
        let _span = crate::span!(TraceKind::WalFlushWindow, a: 7);
        drop(_span);
        assert!(drain().is_empty());
    }

    #[test]
    fn span_and_event_roundtrip() {
        let _g = serial();
        set_enabled(true);
        drain();
        let t = intern("orders");
        crate::event!(TraceKind::CheckpointPin, table: t, part: 3, seq: 42);
        {
            let mut sp = crate::span!(TraceKind::CheckpointMerge, table: t, part: 3);
            sp.set_seq(42);
            std::thread::sleep(Duration::from_millis(1));
        }
        set_enabled(false);
        let recs = drain();
        let evs: Vec<_> = recs.iter().filter_map(decode).collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, TraceKind::CheckpointPin);
        assert_eq!(evs[0].table.as_deref(), Some("orders"));
        assert_eq!(evs[0].part, Some(3));
        assert_eq!(evs[0].seq, 42);
        assert_eq!(evs[0].dur_ns, 0);
        assert_eq!(evs[1].kind, TraceKind::CheckpointMerge);
        assert!(evs[1].dur_ns > 0, "span records its duration");
        assert!(evs[0].ts_ns <= evs[1].ts_ns, "drain sorts by timestamp");
        assert!(evs[1].to_string().contains("checkpoint.merge"));
    }

    #[test]
    fn concurrent_emitters_never_tear() {
        let _g = serial();
        set_enabled(true);
        drain();
        let before_dropped = dropped();
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 30_000; // overflows RING_CAPACITY on purpose
        let sink = Arc::new(MemorySink::new());
        let done = Arc::new(AtomicBool::new(false));
        let drainer = {
            let (sink, done) = (sink.clone(), done.clone());
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    drain_to(&*sink);
                    std::thread::yield_now();
                }
                drain_to(&*sink);
            })
        };
        let emitters: Vec<_> = (0..THREADS)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // a XOR b is a per-record checksum: a torn
                        // record (fields from two writes) breaks it.
                        let mut rec = TraceRecord::new(TraceKind::Commit);
                        rec.seq = t;
                        rec.a = i;
                        rec.b = i ^ (t << 32);
                        emit(rec);
                    }
                })
            })
            .collect();
        for e in emitters {
            e.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        drainer.join().unwrap();
        set_enabled(false);

        let recs = sink.records();
        let new_dropped = dropped() - before_dropped;
        let mut per_thread = vec![0u64; THREADS as usize];
        for r in &recs {
            assert_eq!(r.b, r.a ^ (r.seq << 32), "torn record: {r:?}");
            per_thread[r.seq as usize] += 1;
        }
        let delivered: u64 = per_thread.iter().sum();
        assert_eq!(
            delivered + new_dropped,
            THREADS * PER_THREAD,
            "every record is either delivered whole or counted dropped"
        );
        assert!(delivered > 0, "drainer kept up with some of the load");
    }

    #[test]
    fn json_lines_sink_writes_parseable_lines() {
        let _g = serial();
        set_enabled(true);
        drain();
        let path = std::env::temp_dir().join(format!("obs_trace_{}.jsonl", std::process::id()));
        let sink = JsonLinesSink::create(&path).unwrap();
        let t = intern("line\"items");
        crate::event!(TraceKind::WalEnqueue, table: t, seq: 9, a: 1);
        set_enabled(false);
        drain_to(&sink);
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let line = text.lines().last().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"kind\":\"wal.enqueue\""), "{line}");
        assert!(
            line.contains("\"table\":\"line\\\"items\""),
            "escaped: {line}"
        );
        assert!(line.contains("\"seq\":9"), "{line}");
    }

    #[test]
    fn drain_thread_delivers_and_final_drains() {
        let _g = serial();
        set_enabled(true);
        drain();
        let sink = Arc::new(MemorySink::new());
        let drain_thread = TraceDrain::start(sink.clone(), Duration::from_millis(1));
        crate::event!(TraceKind::AdmissionReject, a: 123);
        // Emit one more right before stop: the final drain must get it.
        crate::event!(TraceKind::AdmissionDelay, a: 456);
        drain_thread.stop();
        set_enabled(false);
        let evs = sink.events();
        assert!(evs
            .iter()
            .any(|e| e.kind == TraceKind::AdmissionReject && e.a == 123));
        assert!(evs
            .iter()
            .any(|e| e.kind == TraceKind::AdmissionDelay && e.a == 456));
    }
}
