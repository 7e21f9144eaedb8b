//! Write-ahead log for committed PDT deltas.
//!
//! The paper (§2, footnote 2): "at each commit column-stores need to write
//! information in a Write-Ahead-Log, but that causes only sequential I/O".
//! Each commit appends one record containing, per touched table, the
//! *serialized* (conflict-free, consecutive) delta entries. Recovery
//! replays records in order, propagating each delta into the master
//! Write-PDT — reproducing exactly the in-memory state at the last commit.
//!
//! ## Checkpoint markers
//!
//! A background checkpoint folds every commit up to some sequence number
//! into a fresh stable image *while later commits keep appending records*.
//! The log therefore cannot simply be truncated at checkpoint time: a
//! record written during the stable rewrite (seq > the checkpoint's pinned
//! sequence) lands in the file **before** the checkpoint completes, but is
//! *not* contained in the new image. Instead the checkpoint appends a
//! [`WalRecord::Checkpoint`] marker carrying the pinned sequence; recovery
//! ([`effective_commits`]) replays, per table, only the commit entries
//! with `seq` greater than the table's last marker — everything at or
//! below it is already durable in the image the table was rebuilt from.
//! Skipping is by sequence number, not file position, precisely because of
//! that mid-merge interleaving.
//!
//! ## Batched entries
//!
//! The engine's write path is batch-first: a bulk append stages one
//! `DmlBatch` per statement, and its WAL flattening is one entry per
//! batch, not one per row. Two dedicated kind codes carry
//! those entries: [`pdt::INS_BATCH`] (values = `n` whole tuples
//! back-to-back) and [`pdt::DEL_BATCH`] (values = `n` sort keys
//! back-to-back). For PDT logs a batch-insert entry's `sid` is the shared
//! insertion point of all its tuples, and a batch-delete entry covers
//! victims at the *consecutive* SIDs `sid..sid+n`; value-based logs set
//! `sid = 0` and ignore it. [`coalesce_entries`] folds any per-row entry
//! stream into this compact form (order-preserving), and
//! [`rebuild_pdt`] / the engine's key-entry replay expand it back.
//!
//! ## Partition tags
//!
//! Range-partitioned tables keep one delta structure — and therefore one
//! WAL footprint — per partition, so every per-table delta in a commit
//! record and every checkpoint marker carries a `partition` index (`0` for
//! unpartitioned tables). Recovery dispatches entries to the tagged
//! partition's structure, and checkpoint markers cover exactly one
//! partition: folding partition 3 into a fresh stable slice never makes
//! replay skip partition 5's commits.
//!
//! Record layout (little-endian):
//!
//! ```text
//! commit:     [magic u32][seq u64][ntables u32]
//!               ntables × [name_len u16][name bytes][partition u32][nentries u32]
//!                 nentries × [sid u64][kind u16][nvals u32][payload]
//! checkpoint: [ckpt_magic u32][seq u64][name_len u16][name bytes][partition u32]
//!               [has_image u8][image_seq u64 when has_image = 1]
//!               [s0 u64][s1 u64][nentries u32]
//!                 nentries × [sid u64][kind u16][nvals u32][payload]
//! payload: INS → full tuple, DEL → sort-key values, MOD → one value,
//!          INS_BATCH → n tuples, DEL_BATCH → n sort keys
//! value:   [tag u8][data]   (0=Null 1=Bool 2=Int 3=Double 4=Str 5=Date)
//! ```
//!
//! Every marker is **range-scoped**: only delta addressing stable SIDs
//! `[s0, s1)` was folded into the published image, and the marker inlines
//! the *residual* — the covered commits' out-of-range remainder, rebased
//! onto the post-merge stable. A whole-partition checkpoint is the range
//! `[0, row_count)` with an empty residual. Replay filtering skips commits
//! ≤ `seq` wholesale; image-based recovery replays the residual between
//! the image load and the surviving commits. Residual values use the plain
//! inline encoding, never dictionary codes.
//!
//! A marker's `image_seq` is the manifest sequence of the persisted
//! compressed image ([`columnar::ImageStore`]) the checkpoint published in
//! its merge phase — always equal to the marker's own `seq`, recorded
//! explicitly so recovery knows whether a marker's folded history exists
//! on disk (image-based recovery) or is purely in-memory durable-by-replay
//! (markers written by image-less databases carry `has_image = 0`).

use columnar::{Schema, Value};
use pdt::builder::PdtBuilder;
use pdt::value_space::ValueSpace;
use pdt::{Pdt, Upd, DEL, DEL_BATCH, INS, INS_BATCH};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

// "pdtT": commit records carry a per-record string dictionary and log
// string values as `u32` codes into it, so a batched entry repeating
// the same string (low-cardinality columns, key echoes in DEL/modify
// entries) pays its bytes once. Bumped from "pdtP" (the partition-
// tagged format, itself bumped from "pdtB") so dictionary-less logs
// from older builds fail loudly with "bad record magic" instead of
// misparsing — replay them with the build that wrote them, checkpoint,
// and restart ("pdtR"/"pdtS" are the image-file and marker magics,
// skipped to keep the magics distinct).
const MAGIC: u32 = 0x7064_7454;
// "pdtV": every checkpoint marker carries the folded SID window and the
// residual out-of-range delta inline — one layout, a whole-partition
// checkpoint being the window over every row. Bumped from "pdtU" (which
// branched on a scope byte) so markers from older builds fail loudly with
// "bad record magic" instead of misparsing; replay such logs with the
// build that wrote them, checkpoint, restart.
const CKPT_MAGIC: u32 = 0x7064_7456;

/// One entry of a logged delta.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    pub sid: u64,
    pub kind: u16,
    pub values: Vec<Value>,
}

/// One log record: a commit's per-partition deltas, or a checkpoint marker.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A commit at sequence `seq` with its delta entries, one element per
    /// touched `(table, partition)` pair. Unpartitioned tables log
    /// partition `0`.
    Commit {
        seq: u64,
        tables: Vec<(String, u32, Vec<WalEntry>)>,
    },
    /// `(table, partition)` was checkpointed: every commit with sequence
    /// ≤ `seq` touching that partition is folded into the stable slice the
    /// partition restarts from. Commits with a later sequence — including
    /// ones physically *before* this marker in the file, written while the
    /// checkpoint merge ran — are not, and neither are other partitions'
    /// commits at any sequence.
    Checkpoint {
        seq: u64,
        table: String,
        partition: u32,
        /// Manifest sequence of the persisted compressed image the
        /// checkpoint published (equal to `seq`); `None` when the
        /// checkpoint folded in memory only, in which case the covered
        /// commits exist nowhere on disk after this marker.
        image_seq: Option<u64>,
        /// The folded stable-SID window `[s0, s1)`: only delta addressing
        /// it is in the published image. The covered commits'
        /// out-of-range remainder is *not* — it rides in `residual`,
        /// rebased onto the post-merge stable, and recovery replays it on
        /// top of the image before the surviving commits. A
        /// whole-partition checkpoint covers every row and leaves an
        /// empty residual.
        range: (u64, u64),
        residual: Vec<WalEntry>,
    },
}

impl WalRecord {
    /// The record's commit sequence.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Commit { seq, .. } => *seq,
            WalRecord::Checkpoint { seq, .. } => *seq,
        }
    }
}

/// Append-only write-ahead log.
pub struct Wal {
    out: BufWriter<File>,
}

impl Wal {
    /// Open (creating if needed) for appending.
    pub fn open(path: &Path) -> std::io::Result<Wal> {
        let f = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Wal {
            out: BufWriter::new(f),
        })
    }

    /// Append pre-encoded record bytes as one physical write + flush
    /// window. The group-commit coordinator ([`GroupWal`]) uses this to
    /// land a whole batch of records in a single append.
    fn append_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.out.write_all(bytes)?;
        self.out.flush()
    }

    /// Read every record of a log file.
    pub fn read_all(path: &Path) -> std::io::Result<Vec<WalRecord>> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        }
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let magic = read_u32(&bytes, &mut pos)?;
            if magic == CKPT_MAGIC {
                let seq = read_u64(&bytes, &mut pos)?;
                let nlen = read_u16(&bytes, &mut pos)? as usize;
                let table = std::str::from_utf8(
                    bytes
                        .get(pos..pos + nlen)
                        .ok_or_else(|| corrupt("truncated checkpoint name"))?,
                )
                .map_err(|_| corrupt("bad utf8 name"))?
                .to_string();
                pos += nlen;
                let partition = read_u32(&bytes, &mut pos)?;
                let has_image = *bytes
                    .get(pos)
                    .ok_or_else(|| corrupt("truncated checkpoint image flag"))?;
                pos += 1;
                let image_seq = match has_image {
                    0 => None,
                    1 => Some(read_u64(&bytes, &mut pos)?),
                    f => return Err(corrupt(&format!("bad checkpoint image flag {f}"))),
                };
                let range = (read_u64(&bytes, &mut pos)?, read_u64(&bytes, &mut pos)?);
                // residual values are always inline (no per-record
                // dictionary on markers)
                let residual = read_entries(&bytes, &mut pos, &[])?;
                records.push(WalRecord::Checkpoint {
                    seq,
                    table,
                    partition,
                    image_seq,
                    range,
                    residual,
                });
                continue;
            }
            if magic != MAGIC {
                return Err(corrupt("bad record magic"));
            }
            let seq = read_u64(&bytes, &mut pos)?;
            // per-record string dictionary (sorted distinct strings)
            let nstrs = read_u32(&bytes, &mut pos)? as usize;
            let mut dict = Vec::with_capacity(nstrs.min(bytes.len() - pos));
            for _ in 0..nstrs {
                let n = read_u32(&bytes, &mut pos)? as usize;
                let s = std::str::from_utf8(
                    bytes
                        .get(
                            pos..pos
                                .checked_add(n)
                                .ok_or_else(|| corrupt("bad dict entry"))?,
                        )
                        .ok_or_else(|| corrupt("truncated dict entry"))?,
                )
                .map_err(|_| corrupt("bad utf8 dict entry"))?
                .to_string();
                pos += n;
                dict.push(s);
            }
            let ntables = read_u32(&bytes, &mut pos)? as usize;
            let mut tables = Vec::with_capacity(ntables);
            for _ in 0..ntables {
                let nlen = read_u16(&bytes, &mut pos)? as usize;
                let name = std::str::from_utf8(
                    bytes
                        .get(pos..pos + nlen)
                        .ok_or_else(|| corrupt("truncated name"))?,
                )
                .map_err(|_| corrupt("bad utf8 name"))?
                .to_string();
                pos += nlen;
                let partition = read_u32(&bytes, &mut pos)?;
                let entries = read_entries(&bytes, &mut pos, &dict)?;
                tables.push((name, partition, entries));
            }
            records.push(WalRecord::Commit { seq, tables });
        }
        Ok(records)
    }
}

/// Resolve checkpoint markers over an already-read record stream: returns
/// only commit records, with each `(table, partition)`'s entries dropped
/// when its covering marker covers them (`seq` ≤ the marker's). This is
/// the record stream a recovery that rebuilt every partition from its
/// checkpointed stable image must replay. `markers` are the stream's own
/// [`checkpoint_markers`], resolved once by the caller, which also adopts
/// images by them.
pub fn effective_commits(
    records: Vec<WalRecord>,
    markers: &HashMap<String, HashMap<u32, CoveringMarker>>,
) -> Vec<WalRecord> {
    records
        .into_iter()
        .filter_map(|rec| match rec {
            WalRecord::Commit { seq, tables } => {
                let kept: Vec<_> = tables
                    .into_iter()
                    .filter(|(t, p, _)| {
                        markers
                            .get(t.as_str())
                            .and_then(|parts| parts.get(p))
                            .is_none_or(|m| seq > m.seq)
                    })
                    .collect();
                Some(WalRecord::Commit { seq, tables: kept })
            }
            WalRecord::Checkpoint { .. } => None,
        })
        .collect()
}

/// Encode one commit record into `buf` (the layout `read_all` parses).
///
/// The record opens with a **per-record string dictionary**: the sorted
/// distinct strings of every logged value, written once. String values in
/// the entry stream are then logged as tag-6 `u32` codes into it, so a
/// batched entry repeating a string (low-cardinality columns, the key
/// echoes of delete/modify entries) pays the bytes once per record.
fn encode_commit_record(buf: &mut Vec<u8>, seq: u64, deltas: &[(&str, u32, &[WalEntry])]) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    // Distinct strings, sorted so identical commits encode identically.
    let mut strs: Vec<&str> = deltas
        .iter()
        .flat_map(|(_, _, entries)| entries.iter())
        .flat_map(|e| e.values.iter())
        .filter_map(|v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    strs.sort_unstable();
    strs.dedup();
    buf.extend_from_slice(&(strs.len() as u32).to_le_bytes());
    for s in &strs {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    }
    let codes: HashMap<&str, u32> = strs
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    buf.extend_from_slice(&(deltas.len() as u32).to_le_bytes());
    for (name, partition, entries) in deltas {
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&partition.to_le_bytes());
        encode_entries(buf, entries, &codes);
    }
}

/// Encode one entry list (count-prefixed) — the shared tail of a commit
/// record's per-partition delta and of a checkpoint marker's residual.
fn encode_entries(buf: &mut Vec<u8>, entries: &[WalEntry], codes: &HashMap<&str, u32>) {
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        buf.extend_from_slice(&e.sid.to_le_bytes());
        buf.extend_from_slice(&e.kind.to_le_bytes());
        // u32: a batched entry carries a whole statement's values
        buf.extend_from_slice(&(e.values.len() as u32).to_le_bytes());
        for v in &e.values {
            encode_value(buf, v, codes);
        }
    }
}

/// Decode one entry list written by [`encode_entries`]; `dict` resolves
/// tag-6 string codes (empty for markers, whose values are inline).
fn read_entries(bytes: &[u8], pos: &mut usize, dict: &[String]) -> std::io::Result<Vec<WalEntry>> {
    let nentries = read_u32(bytes, pos)? as usize;
    let mut entries = Vec::with_capacity(nentries.min(bytes.len() - *pos));
    for _ in 0..nentries {
        let sid = read_u64(bytes, pos)?;
        let kind = read_u16(bytes, pos)?;
        let nvals = read_u32(bytes, pos)? as usize;
        let mut values = Vec::with_capacity(nvals.min(bytes.len() - *pos));
        for _ in 0..nvals {
            values.push(decode_value(bytes, pos, dict)?);
        }
        entries.push(WalEntry { sid, kind, values });
    }
    Ok(entries)
}

/// Encode one checkpoint marker into `buf`. The `residual` entries ride
/// inline — values use the plain tagged encoding (no string dictionary;
/// markers are rare and residuals small when compaction targets the
/// delta-hot ranges it is built for, empty for whole-partition folds).
fn encode_checkpoint_record(
    buf: &mut Vec<u8>,
    table: &str,
    partition: u32,
    seq: u64,
    image_seq: Option<u64>,
    (s0, s1): (u64, u64),
    residual: &[WalEntry],
) {
    buf.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(table.len() as u16).to_le_bytes());
    buf.extend_from_slice(table.as_bytes());
    buf.extend_from_slice(&partition.to_le_bytes());
    match image_seq {
        Some(s) => {
            buf.push(1);
            buf.extend_from_slice(&s.to_le_bytes());
        }
        None => buf.push(0),
    }
    buf.extend_from_slice(&s0.to_le_bytes());
    buf.extend_from_slice(&s1.to_le_bytes());
    encode_entries(buf, residual, &HashMap::new());
}

/// Coordinator counters: logical records enqueued vs physical append
/// windows. `appends < commits` means group commit batched concurrent
/// records into shared write+flush windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Commit records enqueued.
    pub commits: u64,
    /// Checkpoint markers enqueued.
    pub checkpoints: u64,
    /// Physical write + flush windows the log file saw.
    pub appends: u64,
}

struct GroupState {
    /// Encoded records awaiting the next flush window, in enqueue
    /// (= commit sequence) order.
    pending: Vec<u8>,
    /// Number of records currently sitting in `pending`.
    pending_records: u64,
    /// Monotonic ticket counters: total records ever enqueued / made
    /// durable. A record's ticket is the value of `enqueued` right after
    /// its enqueue; it is durable once `durable >= ticket`.
    enqueued: u64,
    durable: u64,
    /// A leader is currently writing a batch (off this lock).
    flushing: bool,
    /// Test seam: suppress leader election so records pile up in
    /// `pending`; waiters block until the hold is released.
    hold: bool,
    /// Sticky I/O failure — the batch that hit it is lost, every waiter
    /// for a non-durable ticket gets the error.
    io_error: Option<String>,
    stats: WalStats,
}

/// Group-commit coordinator around a [`Wal`].
///
/// Commit protocols *enqueue* their encoded record (cheap, in-memory,
/// under the engine's commit guard so the buffer stays in sequence
/// order) and later *wait* for durability after releasing their locks.
/// The first waiter that finds no flush in progress elects itself
/// leader, takes the whole pending buffer, and lands it in **one**
/// physical write + flush window (`Wal::append_raw`); concurrently
/// arriving commits therefore share append windows instead of paying
/// one `write_all` + `flush` each. Followers block until the leader's
/// window covers their ticket.
///
/// The durable prefix of the file is always a sequence-ordered prefix of
/// the enqueue order, so recovery is byte-identical to the sequential
/// path — [`effective_commits`] filters checkpoint markers by
/// sequence, not file position, and that invariant is preserved.
pub struct GroupWal {
    state: StdMutex<GroupState>,
    file: StdMutex<Wal>,
    cv: Condvar,
}

impl GroupWal {
    /// Open (creating if needed) for appending.
    pub fn open(path: &Path) -> std::io::Result<GroupWal> {
        Ok(GroupWal {
            state: StdMutex::new(GroupState {
                pending: Vec::new(),
                pending_records: 0,
                enqueued: 0,
                durable: 0,
                flushing: false,
                hold: false,
                io_error: None,
                stats: WalStats::default(),
            }),
            file: StdMutex::new(Wal::open(path)?),
            cv: Condvar::new(),
        })
    }

    /// Enqueue one commit record — the logical delta entries per touched
    /// `(table, partition)` pair (partition `0` for unpartitioned tables);
    /// PDT commits log their *serialized* deltas via [`pdt_entries`],
    /// value-based stores log key-addressed entries with `sid = 0`.
    /// Returns the ticket to pass to [`Self::wait_durable`]. Callers must hold whatever exclusion
    /// orders their sequence numbers (the engine's commit guard) across
    /// `alloc_seq` + `enqueue_commit` so the buffer stays in seq order.
    pub fn enqueue_commit(&self, seq: u64, deltas: &[(&str, u32, &[WalEntry])]) -> u64 {
        let ticket = {
            let mut g = self.state.lock().unwrap();
            encode_commit_record(&mut g.pending, seq, deltas);
            g.pending_records += 1;
            g.enqueued += 1;
            g.stats.commits += 1;
            g.enqueued
        };
        obs::event!(obs::TraceKind::WalEnqueue, seq: seq, a: ticket);
        ticket
    }

    /// Block until the record behind `ticket` is durable (its bytes
    /// written and flushed). Self-elects as flush leader when no flush is
    /// in progress, so progress never depends on another thread. Only
    /// tickets returned by an enqueue may be waited on.
    pub fn wait_durable(&self, ticket: u64) -> std::io::Result<()> {
        let mut durable_span = obs::span!(obs::TraceKind::WalDurable, a: ticket);
        let mut g = self.state.lock().unwrap();
        loop {
            if g.durable >= ticket {
                durable_span.set_seq(g.durable);
                return Ok(());
            }
            if let Some(msg) = &g.io_error {
                durable_span.cancel();
                return Err(std::io::Error::other(msg.clone()));
            }
            if !g.flushing && !g.hold {
                g = self.flush_batch(g);
            } else {
                g = self.cv.wait(g).unwrap();
            }
        }
    }

    /// Enqueue a checkpoint marker — `(table, partition)`'s commits with
    /// sequence ≤ `seq` are durable in a fresh stable image, persisted on
    /// disk when `image_seq` is set, except for `residual`, their remainder
    /// outside the folded stable-SID window `range` — and wait until it
    /// (and everything enqueued before it) is durable. Call under the same
    /// exclusion that orders commits (the engine's commit guard).
    /// Synchronous on purpose: the caller installs the checkpointed image
    /// under the commit guard, and a recovered log must never cover an
    /// image with a marker that was not yet on disk when the image became
    /// the recovery base.
    pub fn append_checkpoint(
        &self,
        table: &str,
        partition: u32,
        seq: u64,
        image_seq: Option<u64>,
        range: (u64, u64),
        residual: &[WalEntry],
    ) -> std::io::Result<()> {
        let ticket = {
            let mut g = self.state.lock().unwrap();
            encode_checkpoint_record(
                &mut g.pending,
                table,
                partition,
                seq,
                image_seq,
                range,
                residual,
            );
            g.pending_records += 1;
            g.enqueued += 1;
            g.stats.checkpoints += 1;
            g.enqueued
        };
        self.wait_durable(ticket)
    }

    /// Leader path: take the whole pending buffer and land it in one
    /// physical append window. Enters with the state lock held, returns
    /// with it re-held.
    fn flush_batch<'a>(
        &'a self,
        mut g: StdMutexGuard<'a, GroupState>,
    ) -> StdMutexGuard<'a, GroupState> {
        g.flushing = true;
        let batch = std::mem::take(&mut g.pending);
        let records = std::mem::take(&mut g.pending_records);
        let hi = g.enqueued;
        drop(g);
        // `flushing` excludes other leaders, so the file lock is
        // uncontended; taking it off the state lock keeps enqueues and
        // ticket reads running during the write.
        let res = if batch.is_empty() {
            Ok(())
        } else {
            let _flush_span =
                obs::span!(obs::TraceKind::WalFlushWindow, a: records, b: batch.len() as u64);
            self.file.lock().unwrap().append_raw(&batch)
        };
        let mut g = self.state.lock().unwrap();
        g.flushing = false;
        match res {
            Ok(()) => {
                if records > 0 {
                    g.stats.appends += 1;
                }
                g.durable = g.durable.max(hi);
            }
            Err(e) => g.io_error = Some(e.to_string()),
        }
        self.cv.notify_all();
        g
    }

    /// Counters snapshot (commits/markers enqueued, physical appends).
    pub fn stats(&self) -> WalStats {
        self.state.lock().unwrap().stats
    }

    /// Records currently buffered and not yet durable — test seam.
    pub fn pending_records(&self) -> u64 {
        self.state.lock().unwrap().pending_records
    }

    /// Test seam: while held, no waiter elects itself leader, so
    /// concurrently arriving records deterministically pile up into one
    /// batch; releasing the hold wakes the waiters and the first one
    /// flushes the whole buffer in a single append window.
    pub fn hold_flushes(&self, hold: bool) {
        let mut g = self.state.lock().unwrap();
        g.hold = hold;
        drop(g);
        self.cv.notify_all();
    }
}

/// The covering checkpoint marker of one `(table, partition)` — see
/// [`checkpoint_markers`].
#[derive(Debug, Clone)]
pub struct CoveringMarker {
    /// Commit sequence the marker covers (commits ≤ this are folded).
    pub seq: u64,
    /// Manifest sequence of the persisted image to rebuild from.
    pub image_seq: Option<u64>,
    /// Out-of-range delta (rebased onto the post-merge stable) to replay
    /// on top of the image before the surviving commits. Empty when the
    /// marker folded the whole partition.
    pub residual: Vec<WalEntry>,
}

/// The *covering* (highest-sequence) checkpoint marker per table, then per
/// partition. Recovery rebuilds each partition from the persisted image
/// the covering marker references — `image_seq` is the manifest sequence
/// to load — replays the marker's `residual`, then replays the commits
/// [`effective_commits`] keeps.
pub fn checkpoint_markers(records: &[WalRecord]) -> HashMap<String, HashMap<u32, CoveringMarker>> {
    let mut m: HashMap<String, HashMap<u32, CoveringMarker>> = HashMap::new();
    for rec in records {
        if let WalRecord::Checkpoint {
            seq,
            table,
            partition,
            image_seq,
            residual,
            ..
        } = rec
        {
            let cur = CoveringMarker {
                seq: *seq,
                image_seq: *image_seq,
                residual: residual.clone(),
            };
            match m.entry(table.clone()).or_default().entry(*partition) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(cur);
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    if *seq >= o.get().seq {
                        o.insert(cur);
                    }
                }
            }
        }
    }
    m
}

/// Flatten a (serialized, consecutive) PDT into loggable entries: one
/// entry per *batch* where the structure allows it — consecutive inserts
/// at one insertion point and deletes of consecutive SIDs collapse into
/// `INS_BATCH` / `DEL_BATCH` entries via [`coalesce_entries`].
pub fn pdt_entries(pdt: &Pdt) -> Vec<WalEntry> {
    let per_row = pdt.iter().map(|e| {
        let values: Vec<Value> = if e.upd.is_ins() {
            pdt.vals().get_insert(e.upd.val)
        } else if e.upd.is_del() {
            pdt.vals().get_delete(e.upd.val)
        } else {
            vec![pdt.vals().get_modify(e.upd.col_no() as usize, e.upd.val)]
        };
        WalEntry {
            sid: e.sid,
            kind: e.upd.kind,
            values,
        }
    });
    coalesce_entries(per_row)
}

/// Fold a per-row entry stream into batched entries, order-preserving:
///
/// * a run of `INS` entries sharing one `sid` (a bulk insert into one
///   stable gap — always the case for value-based logs, whose sids are 0)
///   becomes one `INS_BATCH` entry with the tuples back-to-back;
/// * a run of `DEL` entries whose sids ascend by exactly 1 (deleting a
///   contiguous stable range; trivially true at sid 0 for value-based
///   logs — see below) becomes one `DEL_BATCH` entry at the run's first
///   sid;
/// * everything else (modifies, isolated inserts/deletes) passes through.
///
/// Value-based stores log every entry with `sid = 0`, so their DEL runs
/// never ascend; they emit `DEL_BATCH` entries directly instead.
pub fn coalesce_entries(entries: impl IntoIterator<Item = WalEntry>) -> Vec<WalEntry> {
    let mut out: Vec<WalEntry> = Vec::new();
    // per-item value width of the growing batch entry (0 = no open batch)
    let mut open_width = 0usize;
    let mut open_items = 0u64;
    for e in entries {
        if let Some(prev) = out.last_mut() {
            if open_width > 0 && e.kind == prev.kind {
                let extends = match e.kind {
                    INS => e.sid == prev.sid,
                    DEL => e.sid == prev.sid + open_items,
                    _ => false,
                };
                if extends && e.values.len() == open_width {
                    prev.values.extend(e.values);
                    open_items += 1;
                    continue;
                }
            }
            // close a pending 2+-item run into its batch kind
            if open_items > 1 {
                prev.kind = match prev.kind {
                    INS => INS_BATCH,
                    DEL => DEL_BATCH,
                    k => k,
                };
            }
        }
        open_width = match e.kind {
            INS | DEL => e.values.len(),
            _ => 0,
        };
        open_items = 1;
        out.push(e);
    }
    if open_items > 1 {
        if let Some(prev) = out.last_mut() {
            prev.kind = match prev.kind {
                INS => INS_BATCH,
                DEL => DEL_BATCH,
                k => k,
            };
        }
    }
    out
}

/// Rebuild a (consecutive) delta PDT from logged entries for propagation.
/// Batched entries expand back to their per-row updates: `INS_BATCH`
/// tuples all insert at the entry's sid, `DEL_BATCH` keys delete the
/// consecutive sids starting there. Entries may come from a file some
/// other table or policy wrote: a payload that is not whole tuples / keys
/// / one value of the table's column types, a modify of a column the table
/// does not have, or entries out of (SID, RID) order are reported, not
/// built.
pub fn rebuild_pdt(
    schema: &Schema,
    sk_cols: &[usize],
    entries: &[WalEntry],
) -> Result<Pdt, String> {
    let tuple_width = schema.len();
    let key_width = sk_cols.len();
    let typed = |v: &Value, col: usize| v.is_null() || v.value_type() == Some(schema.vtype(col));
    let is_key = |key: &[Value]| key.iter().zip(sk_cols).all(|(v, &c)| typed(v, c));
    let whole = |values: &[Value], width: usize| width > 0 && values.len().is_multiple_of(width);
    let mut vals = ValueSpace::new(schema.clone(), sk_cols.to_vec());
    let mut staged: Vec<(u64, Upd)> = Vec::with_capacity(entries.len());
    for e in entries {
        let fits = match e.kind {
            INS => schema.validate(&e.values),
            DEL => e.values.len() == key_width && is_key(&e.values),
            INS_BATCH => {
                whole(&e.values, tuple_width)
                    && e.values.chunks(tuple_width).all(|t| schema.validate(t))
            }
            DEL_BATCH => whole(&e.values, key_width) && e.values.chunks(key_width).all(is_key),
            col => {
                (col as usize) < tuple_width
                    && e.values.len() == 1
                    && typed(&e.values[0], col as usize)
            }
        };
        if !fits {
            return Err(format!(
                "entry of kind {} at SID {} carries {} values that do not match the table's columns",
                e.kind,
                e.sid,
                e.values.len()
            ));
        }
        match e.kind {
            INS => staged.push((e.sid, Upd::ins(vals.add_insert(&e.values)))),
            DEL => staged.push((e.sid, Upd::del(vals.add_delete(&e.values)))),
            INS_BATCH => {
                for tuple in e.values.chunks(tuple_width) {
                    staged.push((e.sid, Upd::ins(vals.add_insert(tuple))));
                }
            }
            DEL_BATCH => {
                for (i, key) in e.values.chunks(key_width).enumerate() {
                    staged.push((e.sid + i as u64, Upd::del(vals.add_delete(key))));
                }
            }
            col => staged.push((
                e.sid,
                Upd::modify(col, vals.add_modify(col as usize, &e.values[0])),
            )),
        }
    }
    let mut b = PdtBuilder::new(vals, pdt::DEFAULT_FANOUT);
    for (sid, upd) in staged {
        b.try_push(sid, upd)?;
    }
    Ok(b.build())
}

/// Split a pinned PDT at the stable-SID window `[s0, s1)` for a
/// range-scoped checkpoint. Entries addressing the window — plus, when
/// `fold_tail` is set (the window ends at the partition's last block),
/// inserts parked at exactly `s1`, the append gap — are the part the
/// range merge folds into fresh blocks and are dropped here. Everything
/// else is the **residual**: prefix entries (`sid < s0`) keep their
/// SIDs, suffix entries (`sid ≥ s1`) shift by the window's net row
/// delta, because the merged range now occupies `[s0, s1 + net)` in the
/// spliced stable. Returns the residual as coalesced loggable entries
/// (the marker payload; [`rebuild_pdt`] turns it back into the new
/// in-memory read layer) and the signed `net` row delta.
///
/// Relies on [`Pdt::iter`] yielding entries in non-decreasing SID order,
/// so the running net delta is complete before the first suffix entry.
pub fn rebase_pdt_outside_range(
    pdt: &Pdt,
    s0: u64,
    s1: u64,
    fold_tail: bool,
) -> (Vec<WalEntry>, i64) {
    let mut net: i64 = 0;
    let mut kept: Vec<WalEntry> = Vec::new();
    for e in pdt.iter() {
        let is_ins = e.upd.is_ins();
        let in_range = if is_ins {
            e.sid >= s0 && (e.sid < s1 || (fold_tail && e.sid == s1))
        } else {
            e.sid >= s0 && e.sid < s1
        };
        if in_range {
            if is_ins {
                net += 1;
            } else if e.upd.is_del() {
                net -= 1;
            }
            continue;
        }
        let values: Vec<Value> = if is_ins {
            pdt.vals().get_insert(e.upd.val)
        } else if e.upd.is_del() {
            pdt.vals().get_delete(e.upd.val)
        } else {
            vec![pdt.vals().get_modify(e.upd.col_no() as usize, e.upd.val)]
        };
        let sid = if e.sid >= s1 {
            e.sid
                .checked_add_signed(net)
                .expect("net insert delta cannot move a suffix SID below zero")
        } else {
            e.sid
        };
        kept.push(WalEntry {
            sid,
            kind: e.upd.kind,
            values,
        });
    }
    (coalesce_entries(kept), net)
}

/// Encode one value. Strings present in `codes` (every string of a commit
/// record — the dictionary is built from the record's own values) are
/// logged as tag-6 codes; the tag-4 inline form remains for strings
/// outside the dictionary.
fn encode_value(buf: &mut Vec<u8>, v: &Value, codes: &HashMap<&str, u32>) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            buf.push(3);
            buf.extend_from_slice(&d.to_le_bytes());
        }
        Value::Str(s) => match codes.get(s.as_str()) {
            Some(c) => {
                buf.push(6);
                buf.extend_from_slice(&c.to_le_bytes());
            }
            None => {
                buf.push(4);
                buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
        },
        Value::Date(d) => {
            buf.push(5);
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
}

fn decode_value(bytes: &[u8], pos: &mut usize, dict: &[String]) -> std::io::Result<Value> {
    let tag = *bytes.get(*pos).ok_or_else(|| corrupt("truncated value"))?;
    *pos += 1;
    Ok(match tag {
        0 => Value::Null,
        1 => {
            let b = *bytes.get(*pos).ok_or_else(|| corrupt("truncated bool"))?;
            *pos += 1;
            Value::Bool(b != 0)
        }
        2 => Value::Int(read_i64(bytes, pos)?),
        3 => Value::Double(f64::from_le_bytes(read_array::<8>(bytes, pos)?)),
        4 => {
            let n = read_u32(bytes, pos)? as usize;
            let s = std::str::from_utf8(
                bytes
                    .get(*pos..*pos + n)
                    .ok_or_else(|| corrupt("truncated str"))?,
            )
            .map_err(|_| corrupt("bad utf8"))?
            .to_string();
            *pos += n;
            Value::Str(s)
        }
        5 => Value::Date(i32::from_le_bytes(read_array::<4>(bytes, pos)?)),
        6 => {
            let code = read_u32(bytes, pos)? as usize;
            Value::Str(
                dict.get(code)
                    .ok_or_else(|| corrupt(&format!("string code {code} out of range")))?
                    .clone(),
            )
        }
        t => return Err(corrupt(&format!("bad value tag {t}"))),
    })
}

fn corrupt(msg: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("WAL corrupt: {msg}"),
    )
}

fn read_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> std::io::Result<[u8; N]> {
    let s = bytes
        .get(*pos..*pos + N)
        .ok_or_else(|| corrupt("truncated field"))?;
    *pos += N;
    Ok(s.try_into().unwrap())
}

fn read_u16(b: &[u8], p: &mut usize) -> std::io::Result<u16> {
    Ok(u16::from_le_bytes(read_array::<2>(b, p)?))
}

fn read_u32(b: &[u8], p: &mut usize) -> std::io::Result<u32> {
    Ok(u32::from_le_bytes(read_array::<4>(b, p)?))
}

fn read_u64(b: &[u8], p: &mut usize) -> std::io::Result<u64> {
    Ok(u64::from_le_bytes(read_array::<8>(b, p)?))
}

fn read_i64(b: &[u8], p: &mut usize) -> std::io::Result<i64> {
    Ok(i64::from_le_bytes(read_array::<8>(b, p)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnar::ValueType;

    #[test]
    fn value_codec_roundtrip() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Double(3.5),
            Value::Str("héllo".into()),
            Value::Date(19000),
        ];
        // inline path: no dictionary in scope
        let mut buf = Vec::new();
        for v in &vals {
            encode_value(&mut buf, v, &HashMap::new());
        }
        let mut pos = 0;
        for v in &vals {
            assert_eq!(&decode_value(&buf, &mut pos, &[]).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
        // dictionary path: the string is logged as a 5-byte code
        let dict = vec!["héllo".to_string()];
        let codes: HashMap<&str, u32> = [("héllo", 0u32)].into_iter().collect();
        let mut coded = Vec::new();
        encode_value(&mut coded, &Value::Str("héllo".into()), &codes);
        assert_eq!(coded.len(), 5);
        let mut pos = 0;
        assert_eq!(
            decode_value(&coded, &mut pos, &dict).unwrap(),
            Value::Str("héllo".into())
        );
        // an out-of-range code is corruption, not a panic
        let mut pos = 0;
        assert!(decode_value(&coded, &mut pos, &[]).is_err());
    }

    #[test]
    fn commit_record_dictionary_dedups_strings() {
        // 100 entries sharing two strings: the encoded record stores each
        // string's bytes once and 4-byte codes elsewhere.
        let long = "x".repeat(64);
        let entries: Vec<WalEntry> = (0..100)
            .map(|i| WalEntry {
                sid: i,
                kind: INS,
                values: vec![Value::Str(long.clone()), Value::Str("y".into())],
            })
            .collect();
        let mut buf = Vec::new();
        encode_commit_record(&mut buf, 1, &[("t", 0, entries.as_slice())]);
        // far below the ~8.7 KiB an inline encoding would take
        assert!(buf.len() < 3000, "record is {} bytes", buf.len());
        // and it decodes back to the original entries
        let dir = std::env::temp_dir().join("pdt_wal_dict_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dict.wal");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, &buf).unwrap();
        let records = Wal::read_all(&path).unwrap();
        let WalRecord::Commit { tables, .. } = &records[0] else {
            panic!("expected a commit record");
        };
        assert_eq!(tables[0].2, entries);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn coalesce_batches_runs_and_rebuild_expands_them() {
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let ins = |sid: u64, k: i64| WalEntry {
            sid,
            kind: INS,
            values: vec![Value::Int(k), Value::Int(k)],
        };
        let del = |sid: u64, k: i64| WalEntry {
            sid,
            kind: DEL,
            values: vec![Value::Int(k)],
        };
        // 3 inserts at one gap + 2 deletes of consecutive sids + an
        // isolated insert + a modify: 7 per-row entries → 4 logged entries
        let per_row = vec![
            ins(2, 20),
            ins(2, 21),
            ins(2, 22),
            del(5, 50),
            del(6, 60),
            WalEntry {
                sid: 7,
                kind: 1,
                values: vec![Value::Int(-1)],
            },
            ins(9, 90),
        ];
        let coalesced = coalesce_entries(per_row.clone());
        assert_eq!(coalesced.len(), 4);
        assert_eq!(coalesced[0].kind, INS_BATCH);
        assert_eq!(coalesced[0].values.len(), 6);
        assert_eq!(coalesced[1].kind, DEL_BATCH);
        assert_eq!(coalesced[1].sid, 5);
        assert_eq!(coalesced[3].kind, INS);
        // the batched log rebuilds the identical PDT
        let from_rows = rebuild_pdt(&schema, &[0], &per_row).unwrap();
        let from_batches = rebuild_pdt(&schema, &[0], &coalesced).unwrap();
        from_batches.check_invariants();
        assert_eq!(from_rows.len(), from_batches.len());
        let a: Vec<_> = from_rows
            .iter()
            .map(|e| (e.sid, e.rid, e.upd.kind))
            .collect();
        let b: Vec<_> = from_batches
            .iter()
            .map(|e| (e.sid, e.rid, e.upd.kind))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn batched_entries_roundtrip_through_the_log() {
        let dir = std::env::temp_dir().join("pdt_wal_batch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batch.wal");
        let _ = std::fs::remove_file(&path);
        let entries = vec![
            WalEntry {
                sid: 3,
                kind: INS_BATCH,
                values: vec![
                    Value::Int(1),
                    Value::Str("a".into()),
                    Value::Int(2),
                    Value::Str("b".into()),
                ],
            },
            WalEntry {
                sid: 0,
                kind: DEL_BATCH,
                values: vec![Value::Int(7), Value::Int(8)],
            },
        ];
        {
            let gw = GroupWal::open(&path).unwrap();
            let t = gw.enqueue_commit(1, &[("t", 3, entries.as_slice())]);
            gw.wait_durable(t).unwrap();
        }
        // the coordinator lands exactly the encoder's bytes
        let mut expected = Vec::new();
        encode_commit_record(&mut expected, 1, &[("t", 3, entries.as_slice())]);
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        let records = Wal::read_all(&path).unwrap();
        assert_eq!(records.len(), 1);
        let WalRecord::Commit { seq, tables } = &records[0] else {
            panic!("expected a commit record");
        };
        assert_eq!(*seq, 1);
        assert_eq!(tables[0].1, 3, "partition tag roundtrips");
        assert_eq!(tables[0].2, entries);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_markers_cover_exactly_one_partition() {
        let dir = std::env::temp_dir().join("pdt_wal_part_marker_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("part.wal");
        let _ = std::fs::remove_file(&path);
        let ins = |k: i64| {
            vec![WalEntry {
                sid: 0,
                kind: INS,
                values: vec![Value::Int(k)],
            }]
        };
        {
            let gw = GroupWal::open(&path).unwrap();
            // seq 1 touches partitions 0 and 1; seq 2 touches partition 0
            let (e0, e1, e2) = (ins(10), ins(20), ins(30));
            gw.enqueue_commit(1, &[("t", 0, e0.as_slice()), ("t", 1, e1.as_slice())]);
            gw.enqueue_commit(2, &[("t", 0, e2.as_slice())]);
            // partition 0 checkpointed at seq 2: both its deltas are folded,
            // with a persisted image referenced by the marker (the
            // synchronous marker append drains the two commits before it)
            gw.append_checkpoint("t", 0, 2, Some(2), (0, 3), &[])
                .unwrap();
        }
        let all = Wal::read_all(&path).unwrap();
        assert_eq!(all.len(), 3);
        assert!(
            matches!(
                all.last(),
                Some(WalRecord::Checkpoint {
                    seq: 2,
                    partition: 0,
                    image_seq: Some(2),
                    ..
                })
            ),
            "image sequence roundtrips through the marker"
        );
        let markers = checkpoint_markers(&all);
        let m = &markers["t"][&0];
        assert_eq!((m.seq, m.image_seq), (2, Some(2)));
        assert!(m.residual.is_empty());
        let effective = effective_commits(all, &markers);
        let kept: Vec<(u64, String, u32)> = effective
            .iter()
            .flat_map(|r| match r {
                WalRecord::Commit { seq, tables } => tables
                    .iter()
                    .map(|(t, p, _)| (*seq, t.clone(), *p))
                    .collect::<Vec<_>>(),
                WalRecord::Checkpoint { .. } => vec![],
            })
            .collect();
        // partition 1's commit survives; partition 0's are covered
        assert_eq!(kept, vec![(1, "t".to_string(), 1)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn range_marker_roundtrips_with_residual() {
        let dir = std::env::temp_dir().join("pdt_wal_range_marker_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("range.wal");
        let _ = std::fs::remove_file(&path);
        let residual = vec![
            WalEntry {
                sid: 3,
                kind: INS,
                values: vec![Value::Int(7), Value::Str("x".into()), Value::Null],
            },
            WalEntry {
                sid: 90,
                kind: DEL_BATCH,
                values: vec![Value::Int(1), Value::Int(2)],
            },
        ];
        {
            let gw = GroupWal::open(&path).unwrap();
            gw.append_checkpoint("t", 2, 5, Some(5), (32, 96), &residual)
                .unwrap();
            // a whole-partition marker after it must stay the covering one
            gw.append_checkpoint("t", 2, 9, Some(9), (0, 128), &[])
                .unwrap();
        }
        let all = Wal::read_all(&path).unwrap();
        assert_eq!(all.len(), 2);
        let WalRecord::Checkpoint {
            seq,
            range,
            residual: got,
            ..
        } = &all[0]
        else {
            panic!("expected a checkpoint record");
        };
        assert_eq!(*seq, 5);
        assert_eq!(*range, (32, 96));
        assert_eq!(*got, residual, "residual values roundtrip inline");
        let markers = checkpoint_markers(&all);
        let m = &markers["t"][&2];
        assert_eq!(m.seq, 9, "highest-seq marker covers");
        assert!(m.residual.is_empty(), "and brings its own (empty) residual");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rebase_outside_range_keeps_prefix_and_shifts_suffix() {
        // stable rows 0..100; window [40, 60); entries on both sides
        let schema = Schema::from_pairs(&[("k", ValueType::Int)]);
        let entries = vec![
            WalEntry {
                sid: 10,
                kind: INS,
                values: vec![Value::Int(1)],
            },
            WalEntry {
                sid: 45,
                kind: INS,
                values: vec![Value::Int(2)],
            },
            WalEntry {
                sid: 50,
                kind: DEL,
                values: vec![Value::Int(3)],
            },
            WalEntry {
                sid: 55,
                kind: DEL,
                values: vec![Value::Int(4)],
            },
            WalEntry {
                sid: 80,
                kind: DEL,
                values: vec![Value::Int(5)],
            },
        ];
        let pdt = rebuild_pdt(&schema, &[0], &entries).unwrap();
        let (residual, net) = rebase_pdt_outside_range(&pdt, 40, 60, false);
        // in-range: 1 insert, 2 deletes → net -1
        assert_eq!(net, -1);
        assert_eq!(residual.len(), 2);
        assert_eq!((residual[0].sid, residual[0].kind), (10, INS));
        assert_eq!(
            (residual[1].sid, residual[1].kind),
            (79, DEL),
            "suffix delete shifts by the window's net row delta"
        );
        // tail fold captures the append gap at s1
        let tail = vec![WalEntry {
            sid: 100,
            kind: INS,
            values: vec![Value::Int(6)],
        }];
        let pdt = rebuild_pdt(&schema, &[0], &tail).unwrap();
        let (residual, net) = rebase_pdt_outside_range(&pdt, 60, 100, true);
        assert_eq!((residual.len(), net), (0, 1), "trailing inserts fold");
        let (residual, net) = rebase_pdt_outside_range(&pdt, 0, 60, false);
        assert_eq!(net, 0);
        assert_eq!(residual[0].sid, 100, "untouched window shifts nothing");
    }

    #[test]
    fn group_commit_shares_one_append_window_across_writers() {
        let dir = std::env::temp_dir().join("pdt_wal_group_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("group.wal");
        let _ = std::fs::remove_file(&path);
        let gw = std::sync::Arc::new(GroupWal::open(&path).unwrap());
        let entry = |k: i64| {
            vec![WalEntry {
                sid: 0,
                kind: INS,
                values: vec![Value::Int(k)],
            }]
        };
        // a solo commit pays one physical append window
        let e = entry(0);
        let t = gw.enqueue_commit(1, &[("t", 0, e.as_slice())]);
        gw.wait_durable(t).unwrap();
        assert_eq!(gw.stats().appends, 1);
        // hold the flusher so 4 concurrent writers deterministically pile
        // their records into one pending batch
        gw.hold_flushes(true);
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let gw = gw.clone();
            handles.push(std::thread::spawn(move || {
                let e = entry(i as i64 + 1);
                let t = gw.enqueue_commit(2 + i, &[("t", 0, e.as_slice())]);
                gw.wait_durable(t).unwrap();
            }));
        }
        while gw.pending_records() < 4 {
            std::thread::yield_now();
        }
        // the held-back records are NOT on disk yet (this is the crash
        // window a group-commit crash test kills in)
        assert_eq!(Wal::read_all(&path).unwrap().len(), 1);
        gw.hold_flushes(false);
        for h in handles {
            h.join().unwrap();
        }
        let s = gw.stats();
        assert_eq!(s.commits, 5);
        assert_eq!(
            s.appends, 2,
            "4 concurrent commits must share one append window"
        );
        assert!(
            s.commits - s.appends >= 3,
            "≥1 fewer append per commit on average at 4 writers"
        );
        let mut seqs: Vec<u64> = Wal::read_all(&path)
            .unwrap()
            .iter()
            .map(|r| r.seq())
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5], "no record lost or duplicated");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_checkpoint_marker_is_synchronous_and_flushes_pending() {
        let dir = std::env::temp_dir().join("pdt_wal_group_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("group_ckpt.wal");
        let _ = std::fs::remove_file(&path);
        let gw = GroupWal::open(&path).unwrap();
        let e = vec![WalEntry {
            sid: 0,
            kind: INS,
            values: vec![Value::Int(7)],
        }];
        // an enqueued-but-unflushed commit rides along with the marker
        let _ticket = gw.enqueue_commit(1, &[("t", 0, e.as_slice())]);
        gw.append_checkpoint("t", 0, 1, None, (0, 1), &[]).unwrap();
        assert_eq!(gw.pending_records(), 0, "marker append drains the buffer");
        let s = gw.stats();
        assert_eq!((s.commits, s.checkpoints, s.appends), (1, 1, 1));
        let recs = Wal::read_all(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[0], WalRecord::Commit { seq: 1, .. }));
        assert!(matches!(recs[1], WalRecord::Checkpoint { seq: 1, .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rebuild_pdt_from_entries() {
        let schema = Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]);
        let entries = vec![
            WalEntry {
                sid: 1,
                kind: INS,
                values: vec![Value::Int(5), Value::Int(50)],
            },
            WalEntry {
                sid: 2,
                kind: 1,
                values: vec![Value::Int(99)],
            },
            WalEntry {
                sid: 4,
                kind: DEL,
                values: vec![Value::Int(40)],
            },
        ];
        let p = rebuild_pdt(&schema, &[0], &entries).unwrap();
        p.check_invariants();
        assert_eq!(p.len(), 3);
        assert_eq!(p.delta_total(), 0);
    }
}
