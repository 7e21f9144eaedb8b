//! Persisted compressed stable images and their manifest.
//!
//! A checkpoint's merge phase materialises a fresh [`StableTable`]; this
//! module writes that table's *encoded* blocks (FOR/RLE/dict/delta exactly
//! as chosen by [`crate::block::Block::encode`]) to one image file per
//! table partition, and tracks the current image of every partition in a
//! single `MANIFEST` file that is swapped atomically (write-temp + rename).
//! Recovery loads images instead of replaying folded WAL history.
//!
//! Durability protocol (see the engine's checkpoint for the locking):
//!
//! 1. image file written to `<file>.tmp`, fsync'd, renamed into place;
//! 2. manifest rewritten the same way — the rename is the publish point;
//! 3. only then is the WAL checkpoint marker appended.
//!
//! A crash between 2 and 3 leaves a manifest entry whose sequence is
//! *ahead* of the WAL's checkpoint marker; loaders must treat such an
//! entry as absent (the commits folded into it will replay from the WAL
//! instead — see [`ImageStore::load`]). To keep the *previous* recovery
//! base alive across that window, the manifest retains the newest **two**
//! entries per partition: by the time a new checkpoint of a partition
//! publishes, the previous image's marker is durable (phase 3 appends it
//! synchronously and per-partition checkpoints are serialized), so every
//! older entry is unreferenced and its file is pruned. Every byte read
//! from an image is
//! bounds-checked and checksummed: corruption yields
//! [`ColumnarError::Corrupt`], never a panic (the decode paths themselves
//! are hardened the same way in [`crate::compress`]).

use crate::block::{Block, Encoding};
use crate::error::{ColumnarError, Result};
use crate::io::IoTracker;
use crate::schema::{Field, Schema, SortKeyDef};
use crate::table::{StableTable, TableMeta, TableOptions};
use crate::value::{SkKey, Value, ValueType};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Per-block physical provenance: for each stable block, the
/// `(generation sequence, block index)` of the image file that actually
/// holds its bytes. Blocks written inline map to the loaded generation;
/// blocks kept by reference map to the generation they were copied from.
pub type BlockProvenance = Vec<(u64, usize)>;

/// Image file magic: "pdtR" (R for read-store image).
const IMAGE_MAGIC: u32 = 0x7064_7452;
/// Image format version. v2 added per-column global string dictionaries
/// (one optional dictionary section per column, ahead of its blocks) and
/// the [`Encoding::GlobalCode`] block codec; v3 added **block reuse**: a
/// block slot may be a reference `(src_seq, src_idx)` into a prior
/// generation's image of the same partition instead of an inline payload
/// (written by incremental compaction for the blocks it did not touch);
/// v4 added the [`Encoding::BitPacked`] block codec (tag 5). v4 is
/// written; v3 still loads — it is v4 without tag 5, and the checkpoint
/// markers of every log a v3 build wrote point at v3 images (a v4 image
/// may reference blocks of a v3 generation). Older images, like v1
/// manifests, were written by builds whose WAL checkpoint markers the log
/// reader no longer accepts, so no readable log can lead recovery to one —
/// they are [`ColumnarError::Corrupt`].
const IMAGE_VERSION: u32 = 4;
/// Encoding-byte tag marking a block *reference* (physical blocks use the
/// [`Encoding::ALL`] indices 0–5).
const REF_TAG: u8 = 0xff;
/// Manifest format header (v2 added each entry's `deps` field).
const MANIFEST_HEADER: &str = "pdt-images v2";
/// Manifest file name inside the image directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

fn io_err(e: std::io::Error) -> ColumnarError {
    ColumnarError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// binary primitives
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        match self.pos.checked_add(n) {
            Some(end) if end <= self.buf.len() => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            _ => Err(ColumnarError::Corrupt(format!(
                "image truncated: need {n} bytes at {}, have {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|e| ColumnarError::Corrupt(format!("image string not utf8: {e}")))
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn vtype_tag(t: ValueType) -> u8 {
    match t {
        ValueType::Bool => 0,
        ValueType::Int => 1,
        ValueType::Double => 2,
        ValueType::Str => 3,
        ValueType::Date => 4,
    }
}

fn vtype_of(tag: u8) -> Result<ValueType> {
    Ok(match tag {
        0 => ValueType::Bool,
        1 => ValueType::Int,
        2 => ValueType::Double,
        3 => ValueType::Str,
        4 => ValueType::Date,
        t => return Err(ColumnarError::Corrupt(format!("bad vtype tag {t}"))),
    })
}

/// The codec of a block tag in an image of `version` (v3 predates
/// [`Encoding::BitPacked`]).
fn encoding_of(tag: u8, version: u32) -> Result<Encoding> {
    match Encoding::ALL.get(tag as usize) {
        Some(Encoding::BitPacked) if version < 4 => Err(ColumnarError::Corrupt(format!(
            "encoding tag {tag} in a v{version} image"
        ))),
        Some(&e) => Ok(e),
        None => Err(ColumnarError::Corrupt(format!("bad encoding tag {tag}"))),
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(3);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
        Value::Date(d) => {
            out.push(5);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

fn get_value(cur: &mut Cursor<'_>) -> Result<Value> {
    Ok(match cur.u8()? {
        0 => Value::Null,
        1 => Value::Bool(cur.u8()? != 0),
        2 => Value::Int(i64::from_le_bytes(cur.take(8)?.try_into().unwrap())),
        3 => Value::Double(f64::from_le_bytes(cur.take(8)?.try_into().unwrap())),
        4 => Value::Str(cur.str()?),
        5 => Value::Date(i32::from_le_bytes(cur.take(4)?.try_into().unwrap())),
        t => return Err(ColumnarError::Corrupt(format!("bad value tag {t}"))),
    })
}

fn put_key(out: &mut Vec<u8>, key: &[Value]) {
    out.push(key.len() as u8);
    for v in key {
        put_value(out, v);
    }
}

fn get_key(cur: &mut Cursor<'_>) -> Result<SkKey> {
    let n = cur.u8()? as usize;
    let mut key = Vec::with_capacity(n);
    for _ in 0..n {
        key.push(get_value(cur)?);
    }
    Ok(key)
}

/// FNV-1a 64 over the image body (cheap whole-file corruption detection; a
/// flipped bit inside a block payload is additionally caught by the decode
/// bounds checks).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// image files
// ---------------------------------------------------------------------------

/// Byte/block accounting of one image publish — what incremental
/// compaction saves shows up as `*_reused` (per column-block: each block
/// of each column is one physical unit in the file).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ImagePublishStats {
    /// Column-blocks whose payload was written inline.
    pub blocks_written: u64,
    /// Column-blocks written as references into a prior generation.
    pub blocks_reused: u64,
    /// Payload bytes written inline.
    pub bytes_written: u64,
    /// Payload bytes *not* rewritten thanks to references.
    pub bytes_reused: u64,
}

/// Serialize `table` (with its checkpoint sequence) into image bytes.
pub fn encode_image(table: &StableTable, seq: u64) -> Vec<u8> {
    encode_image_with_reuse(table, seq, &[]).0
}

/// Serialize `table`, writing block `b` (of every column) as a reference
/// to `prov[b] = (src_seq, src_idx)` when that provenance names a *prior*
/// generation (`src_seq != seq`) — the caller guarantees the referenced
/// block is byte-identical (compaction splices keep untouched blocks
/// shared). `prov` may be shorter than the block count (missing entries
/// are written inline). Returns the bytes, the distinct generations the
/// image depends on, and the write/reuse accounting.
pub fn encode_image_with_reuse(
    table: &StableTable,
    seq: u64,
    prov: &[Option<(u64, usize)>],
) -> (Vec<u8>, Vec<u64>, ImagePublishStats) {
    let mut deps = std::collections::BTreeSet::new();
    let mut stats = ImagePublishStats::default();
    let mut body = Vec::new();
    body.extend_from_slice(&seq.to_le_bytes());
    let meta = table.meta();
    put_str(&mut body, &meta.name);
    body.extend_from_slice(&(meta.schema.len() as u16).to_le_bytes());
    for f in meta.schema.fields() {
        put_str(&mut body, &f.name);
        body.push(vtype_tag(f.vtype));
    }
    let sk = meta.sort_key.cols();
    body.extend_from_slice(&(sk.len() as u16).to_le_bytes());
    for &c in sk {
        body.extend_from_slice(&(c as u32).to_le_bytes());
    }
    let opts = table.options();
    body.extend_from_slice(&(opts.block_rows as u32).to_le_bytes());
    body.push(opts.compressed as u8);
    body.extend_from_slice(&table.row_count().to_le_bytes());
    body.extend_from_slice(&(table.num_columns() as u16).to_le_bytes());
    for c in 0..table.num_columns() {
        // v2: optional global string dictionary, ahead of the column's
        // blocks (GlobalCode blocks decode against it).
        match table.column_dict(c) {
            Some(dict) => {
                body.push(1);
                body.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                for s in dict.iter() {
                    put_str(&mut body, s);
                }
            }
            None => body.push(0),
        }
        let blocks = table.column_blocks(c);
        body.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        for (j, b) in blocks.iter().enumerate() {
            body.extend_from_slice(&(b.len as u32).to_le_bytes());
            body.push(vtype_tag(b.vtype));
            match prov.get(j).copied().flatten() {
                Some((src_seq, src_idx)) if src_seq != seq => {
                    // v3 block reference: the payload lives in a prior
                    // generation's image of this partition
                    body.push(REF_TAG);
                    body.extend_from_slice(&src_seq.to_le_bytes());
                    body.extend_from_slice(&(src_idx as u32).to_le_bytes());
                    deps.insert(src_seq);
                    stats.blocks_reused += 1;
                    stats.bytes_reused += b.payload.len() as u64;
                }
                _ => {
                    body.push(b.encoding as u8);
                    body.extend_from_slice(&(b.payload.len() as u32).to_le_bytes());
                    body.extend_from_slice(&b.payload);
                    stats.blocks_written += 1;
                    stats.bytes_written += b.payload.len() as u64;
                }
            }
        }
    }
    let mins = table.sparse_index().first_keys();
    let maxs = table.block_max_keys();
    body.extend_from_slice(&(mins.len() as u32).to_le_bytes());
    for (min, max) in mins.iter().zip(maxs) {
        put_key(&mut body, min);
        put_key(&mut body, max);
    }

    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(&IMAGE_MAGIC.to_le_bytes());
    out.extend_from_slice(&IMAGE_VERSION.to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&fnv1a(&body).to_le_bytes());
    (out, deps.into_iter().collect(), stats)
}

/// One block slot of a parsed image: an inline payload, or a v3 reference
/// into a prior generation of the same partition.
enum RawBlock {
    Phys(Block),
    Ref {
        len: usize,
        vtype: ValueType,
        src_seq: u64,
        src_idx: usize,
    },
}

/// A parsed (but not yet reference-resolved) image.
struct RawImage {
    seq: u64,
    meta: TableMeta,
    opts: TableOptions,
    row_count: u64,
    cols: Vec<Vec<RawBlock>>,
    mins: Vec<SkKey>,
    maxs: Vec<SkKey>,
    dicts: Vec<Option<std::sync::Arc<crate::dict::StrDict>>>,
}

impl RawImage {
    /// Distinct prior generations this image references.
    fn dep_seqs(&self) -> Vec<u64> {
        let mut deps = std::collections::BTreeSet::new();
        for col in &self.cols {
            for b in col {
                if let RawBlock::Ref { src_seq, .. } = b {
                    deps.insert(*src_seq);
                }
            }
        }
        deps.into_iter().collect()
    }
}

fn parse_image(bytes: &[u8]) -> Result<RawImage> {
    if bytes.len() < 16 {
        return Err(ColumnarError::Corrupt("image shorter than header".into()));
    }
    let mut cur = Cursor::new(bytes);
    if cur.u32()? != IMAGE_MAGIC {
        return Err(ColumnarError::Corrupt("bad image magic".into()));
    }
    let version = cur.u32()?;
    if !(3..=IMAGE_VERSION).contains(&version) {
        return Err(ColumnarError::Corrupt(format!(
            "unsupported image version {version}"
        )));
    }
    let body = &bytes[8..bytes.len() - 8];
    let stored_sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if fnv1a(body) != stored_sum {
        return Err(ColumnarError::Corrupt("image checksum mismatch".into()));
    }
    let mut cur = Cursor::new(body);
    let seq = cur.u64()?;
    let name = cur.str()?;
    let nfields = cur.u16()? as usize;
    let mut fields = Vec::with_capacity(nfields.min(body.len()));
    for _ in 0..nfields {
        let fname = cur.str()?;
        let vtype = vtype_of(cur.u8()?)?;
        fields.push(Field::new(fname, vtype));
    }
    let nsk = cur.u16()? as usize;
    let mut sk = Vec::with_capacity(nsk.min(body.len()));
    for _ in 0..nsk {
        let c = cur.u32()? as usize;
        if c >= nfields {
            return Err(ColumnarError::Corrupt(format!(
                "sort-key column {c} out of range ({nfields} fields)"
            )));
        }
        sk.push(c);
    }
    let block_rows = cur.u32()? as usize;
    let compressed = cur.u8()? != 0;
    let row_count = cur.u64()?;
    let ncols = cur.u16()? as usize;
    if ncols != nfields {
        return Err(ColumnarError::Corrupt(format!(
            "image has {ncols} columns for {nfields} fields"
        )));
    }
    let schema = Schema::new(fields);
    let mut cols = Vec::with_capacity(ncols);
    let mut dicts = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        match cur.u8()? {
            0 => dicts.push(None),
            1 => {
                let n = cur.u32()? as usize;
                let mut strs = Vec::with_capacity(n.min(body.len()));
                for _ in 0..n {
                    strs.push(cur.str()?);
                }
                // from_sorted re-validates order/uniqueness so a corrupt
                // dictionary cannot break code comparisons later.
                dicts.push(Some(std::sync::Arc::new(
                    crate::dict::StrDict::from_sorted(strs)?,
                )));
            }
            t => {
                return Err(ColumnarError::Corrupt(format!(
                    "bad dictionary presence tag {t}"
                )))
            }
        }
        let nblocks = cur.u32()? as usize;
        let mut blocks = Vec::with_capacity(nblocks.min(body.len()));
        for _ in 0..nblocks {
            let len = cur.u32()? as usize;
            let vtype = vtype_of(cur.u8()?)?;
            let tag = cur.u8()?;
            if tag == REF_TAG {
                let src_seq = cur.u64()?;
                let src_idx = cur.u32()? as usize;
                if src_seq >= seq {
                    return Err(ColumnarError::Corrupt(format!(
                        "block ref to seq {src_seq} not older than image seq {seq}"
                    )));
                }
                blocks.push(RawBlock::Ref {
                    len,
                    vtype,
                    src_seq,
                    src_idx,
                });
            } else {
                let encoding = encoding_of(tag, version)?;
                let plen = cur.u32()? as usize;
                let payload = cur.take(plen)?;
                blocks.push(RawBlock::Phys(Block {
                    len,
                    vtype,
                    encoding,
                    payload: Bytes::copy_from_slice(payload),
                }));
            }
        }
        cols.push(blocks);
    }
    let nbounds = cur.u32()? as usize;
    let mut mins = Vec::with_capacity(nbounds.min(body.len()));
    let mut maxs = Vec::with_capacity(nbounds.min(body.len()));
    for _ in 0..nbounds {
        mins.push(get_key(&mut cur)?);
        maxs.push(get_key(&mut cur)?);
    }
    Ok(RawImage {
        seq,
        meta: TableMeta {
            name,
            schema,
            sort_key: SortKeyDef::new(sk),
        },
        opts: TableOptions {
            block_rows,
            compressed,
        },
        row_count,
        cols,
        mins,
        maxs,
        dicts,
    })
}

/// Resolve a parsed image into a table, pulling referenced payloads out of
/// `deps` (parsed prior generations, keyed by sequence). Charges every
/// block — inline or referenced — to `io`. Also returns the per-block
/// provenance: which generation physically holds each block (validated
/// identical across columns).
fn resolve_image(
    raw: RawImage,
    deps: &BTreeMap<u64, RawImage>,
    io: &IoTracker,
) -> Result<(StableTable, BlockProvenance, u64)> {
    let nblocks = raw.cols.first().map(|c| c.len()).unwrap_or(0);
    let mut prov: Vec<Option<(u64, usize)>> = vec![None; nblocks];
    let mut cols = Vec::with_capacity(raw.cols.len());
    for (c, col) in raw.cols.into_iter().enumerate() {
        let mut blocks = Vec::with_capacity(col.len());
        for (j, rb) in col.into_iter().enumerate() {
            let (origin, block) = match rb {
                RawBlock::Phys(b) => ((raw.seq, j), b),
                RawBlock::Ref {
                    len,
                    vtype,
                    src_seq,
                    src_idx,
                } => {
                    let dep = deps.get(&src_seq).ok_or_else(|| {
                        ColumnarError::Corrupt(format!(
                            "block ref to unavailable generation {src_seq}"
                        ))
                    })?;
                    let src = dep
                        .cols
                        .get(c)
                        .and_then(|col| col.get(src_idx))
                        .ok_or_else(|| {
                            ColumnarError::Corrupt(format!(
                                "block ref ({src_seq}, {src_idx}) out of range"
                            ))
                        })?;
                    let RawBlock::Phys(b) = src else {
                        // publishes flatten provenance, so a ref must land
                        // on an inline block — a ref chain is corruption
                        return Err(ColumnarError::Corrupt(format!(
                            "block ref ({src_seq}, {src_idx}) points at another ref"
                        )));
                    };
                    if b.len != len || b.vtype != vtype {
                        return Err(ColumnarError::Corrupt(format!(
                            "block ref ({src_seq}, {src_idx}) shape mismatch"
                        )));
                    }
                    ((src_seq, src_idx), b.clone())
                }
            };
            match &prov[j] {
                None => prov[j] = Some(origin),
                Some(p) if *p == origin => {}
                Some(p) => {
                    return Err(ColumnarError::Corrupt(format!(
                        "block {j} provenance disagrees across columns: {p:?} vs {origin:?}"
                    )))
                }
            }
            io.record_block(block.payload.len() as u64);
            blocks.push(block);
        }
        cols.push(blocks);
    }
    let table = StableTable::from_parts(
        raw.meta,
        raw.opts,
        raw.row_count,
        cols,
        raw.mins,
        raw.maxs,
        raw.dicts,
    )?;
    let prov = prov
        .into_iter()
        .map(|p| p.expect("set per block"))
        .collect();
    Ok((table, prov, raw.seq))
}

/// Parse image bytes back into a table and its checkpoint sequence. Every
/// read is bounds-checked; shape and checksum mismatches return
/// [`ColumnarError::Corrupt`]. Each block's stored bytes are charged to
/// `io` — the image load *is* the cold-start I/O the paper's plots model.
/// Only self-contained images decode this way; an image with block
/// references needs its dependency files and must go through
/// [`ImageStore::load`]. An image older than v3 is
/// [`ColumnarError::Corrupt`].
pub fn decode_image(bytes: &[u8], io: &IoTracker) -> Result<(StableTable, u64)> {
    let raw = parse_image(bytes)?;
    if !raw.dep_seqs().is_empty() {
        return Err(ColumnarError::Corrupt(
            "image has block references; load it through its ImageStore".into(),
        ));
    }
    let (table, _, seq) = resolve_image(raw, &BTreeMap::new(), io)?;
    Ok((table, seq))
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(bytes).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
    }
    fs::rename(&tmp, path).map_err(io_err)
}

// ---------------------------------------------------------------------------
// manifest
// ---------------------------------------------------------------------------

/// One published image of a partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageEntry {
    /// Checkpoint sequence the image folds (every commit with `seq <=` this
    /// is contained in the image).
    pub seq: u64,
    /// Image file name, relative to the image directory.
    pub file: String,
    /// Sequences of prior generations whose blocks this image references
    /// (empty for self-contained images). Retention must keep these files
    /// alive as long as this entry is retained.
    pub deps: Vec<u64>,
}

/// The manifest: the published images of every `(table, partition)`,
/// atomically swapped as one file so readers always observe a consistent
/// set. Per key the newest two entries are retained (ascending by
/// sequence): the newest may sit in the crash window before its WAL
/// marker, in which case the one below it is the recovery base.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImageManifest {
    entries: BTreeMap<(String, u32), Vec<ImageEntry>>,
}

impl ImageManifest {
    /// Parse `MANIFEST` in `dir`. `Ok(None)` when absent (no checkpoint has
    /// published an image yet).
    pub fn load(dir: &Path) -> Result<Option<ImageManifest>> {
        let path = dir.join(MANIFEST_FILE);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(e)),
        };
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(ColumnarError::Corrupt("bad manifest header".into()));
        }
        let mut entries = BTreeMap::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(6, '\t');
            let (Some("image"), Some(seq), Some(partition), Some(file), Some(deps), Some(table)) = (
                parts.next(),
                parts.next(),
                parts.next(),
                parts.next(),
                parts.next(),
                parts.next(),
            ) else {
                return Err(ColumnarError::Corrupt(format!(
                    "bad manifest line: {line:?}"
                )));
            };
            let seq = seq
                .parse::<u64>()
                .map_err(|_| ColumnarError::Corrupt(format!("bad manifest seq: {line:?}")))?;
            let partition = partition
                .parse::<u32>()
                .map_err(|_| ColumnarError::Corrupt(format!("bad manifest partition: {line:?}")))?;
            let deps: Vec<u64> = if deps == "-" {
                Vec::new()
            } else {
                deps.split(',')
                    .map(|d| {
                        d.parse::<u64>().map_err(|_| {
                            ColumnarError::Corrupt(format!("bad manifest deps: {line:?}"))
                        })
                    })
                    .collect::<Result<_>>()?
            };
            let key = (table.to_string(), partition);
            let list: &mut Vec<ImageEntry> = entries.entry(key).or_default();
            list.push(ImageEntry {
                seq,
                file: file.to_string(),
                deps,
            });
        }
        for list in entries.values_mut() {
            list.sort_by_key(|e| e.seq);
        }
        Ok(Some(ImageManifest { entries }))
    }

    /// Write the manifest to `dir` atomically (temp file + rename).
    pub fn save(&self, dir: &Path) -> Result<()> {
        let mut text = String::from(MANIFEST_HEADER);
        text.push('\n');
        for ((table, partition), list) in &self.entries {
            for e in list {
                let deps = if e.deps.is_empty() {
                    "-".to_string()
                } else {
                    e.deps
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                };
                text.push_str(&format!(
                    "image\t{}\t{}\t{}\t{}\t{}\n",
                    e.seq, partition, e.file, deps, table
                ));
            }
        }
        write_atomic(&dir.join(MANIFEST_FILE), text.as_bytes())
    }

    /// The entry of `(table, partition)` at *exactly* `seq`, if published.
    pub fn get(&self, table: &str, partition: u32, seq: u64) -> Option<&ImageEntry> {
        self.entries
            .get(&(table.to_string(), partition))?
            .iter()
            .find(|e| e.seq == seq)
    }

    /// The newest published entry of `(table, partition)` — possibly in the
    /// crash window before its WAL marker.
    pub fn latest(&self, table: &str, partition: u32) -> Option<&ImageEntry> {
        self.entries.get(&(table.to_string(), partition))?.last()
    }

    /// Record a publish: insert `entry` (replacing a same-sequence one) and
    /// return the entries it supersedes, whose files the caller may delete
    /// once the manifest is saved. Retention is **manifest-driven**: the
    /// newest two generations stay (the newest may sit in the crash window
    /// before its WAL marker, the one below it is then the recovery base),
    /// *plus* the transitive dependency closure of everything kept — an
    /// older generation whose blocks a kept incremental image still
    /// references must not lose its file.
    pub fn set(&mut self, table: &str, partition: u32, entry: ImageEntry) -> Vec<ImageEntry> {
        let list = self
            .entries
            .entry((table.to_string(), partition))
            .or_default();
        list.retain(|e| e.seq != entry.seq);
        list.push(entry);
        list.sort_by_key(|e| e.seq);
        let mut keep: std::collections::BTreeSet<u64> =
            list.iter().rev().take(2).map(|e| e.seq).collect();
        loop {
            let more: Vec<u64> = list
                .iter()
                .filter(|e| keep.contains(&e.seq))
                .flat_map(|e| e.deps.iter().copied())
                .filter(|d| !keep.contains(d))
                .collect();
            if more.is_empty() {
                break;
            }
            keep.extend(more);
        }
        let (kept, pruned): (Vec<ImageEntry>, Vec<ImageEntry>) = std::mem::take(list)
            .into_iter()
            .partition(|e| keep.contains(&e.seq));
        *list = kept;
        pruned
    }

    /// Number of `(table, partition)` keys with at least one image.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no partition has a published image.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// ---------------------------------------------------------------------------
// store
// ---------------------------------------------------------------------------

/// Image directory handle: publishes checkpoint images and loads them back
/// on recovery. Publishes are serialized internally so per-partition
/// checkpoints may run concurrently.
#[derive(Debug)]
pub struct ImageStore {
    dir: PathBuf,
    publish_lock: Mutex<()>,
}

impl ImageStore {
    /// Open (creating if needed) an image directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ImageStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err)?;
        Ok(ImageStore {
            dir,
            publish_lock: Mutex::new(()),
        })
    }

    /// The image directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn image_file(table: &str, partition: u32, seq: u64) -> String {
        format!("{table}.p{partition}.{seq}.img")
    }

    /// Persist `table` as the image of `(table_name, partition)` at
    /// checkpoint sequence `seq` and swap the manifest to point at it. The
    /// manifest rename is the publish point; the caller appends the WAL
    /// checkpoint marker only after this returns. The previous image stays
    /// published (and its file on disk) so a crash before the new marker
    /// lands still finds its recovery base; entries older than that are
    /// pruned here, after the swap.
    ///
    /// Block `b` whose `prov[b]` names a prior published generation is
    /// written as a reference instead of an inline payload (a range
    /// compaction passes the provenance of the blocks its splice kept; a
    /// whole-partition checkpoint kept none). Returns the write/reuse
    /// accounting.
    pub fn publish_with_reuse(
        &self,
        table_name: &str,
        partition: u32,
        seq: u64,
        table: &StableTable,
        prov: &[Option<(u64, usize)>],
    ) -> Result<ImagePublishStats> {
        let _g = self.publish_lock.lock().expect("image publish lock");
        let (bytes, deps, stats) = encode_image_with_reuse(table, seq, prov);
        let file = Self::image_file(table_name, partition, seq);
        write_atomic(&self.dir.join(&file), &bytes)?;
        let mut manifest = ImageManifest::load(&self.dir)?.unwrap_or_default();
        let pruned = manifest.set(table_name, partition, ImageEntry { seq, file, deps });
        manifest.save(&self.dir)?;
        for old in pruned {
            // Best-effort cleanup; the manifest no longer references them.
            let _ = fs::remove_file(self.dir.join(old.file));
        }
        Ok(stats)
    }

    /// Load the image of `(table, partition)` if the manifest has one at
    /// *exactly* `expect_seq` — the WAL's checkpoint-marker sequence. A
    /// manifest entry ahead of the marker is the crash window between
    /// manifest swap and marker append: its image folds commits the WAL
    /// still considers live, so it must not be used; the entry below it
    /// (the previous recovery base) is retained and matches the marker
    /// instead. Returns `Ok(None)` when no entry matches (the caller falls
    /// back to full WAL replay).
    ///
    /// Beside the table comes each block's physical provenance
    /// `(generation, block index)` — the engine seeds its block-reuse
    /// tracking from this so post-recovery compactions keep referencing
    /// (rather than rewriting) untouched blocks. Block references are
    /// resolved here against the manifest's dependency entries; a
    /// reference to a pruned or chained generation is
    /// [`ColumnarError::Corrupt`].
    pub fn load(
        &self,
        table: &str,
        partition: u32,
        expect_seq: u64,
        io: &IoTracker,
    ) -> Result<Option<(StableTable, BlockProvenance)>> {
        let Some(manifest) = ImageManifest::load(&self.dir)? else {
            return Ok(None);
        };
        let Some(entry) = manifest.get(table, partition, expect_seq) else {
            return Ok(None);
        };
        let bytes = fs::read(self.dir.join(&entry.file)).map_err(io_err)?;
        let raw = parse_image(&bytes)?;
        if raw.seq != entry.seq {
            return Err(ColumnarError::Corrupt(format!(
                "image seq {} does not match manifest seq {}",
                raw.seq, entry.seq
            )));
        }
        let mut deps = BTreeMap::new();
        for dep_seq in raw.dep_seqs() {
            let dep_entry = manifest.get(table, partition, dep_seq).ok_or_else(|| {
                ColumnarError::Corrupt(format!(
                    "image at seq {expect_seq} references generation {dep_seq}, \
                     which the manifest no longer holds"
                ))
            })?;
            let dep_bytes = fs::read(self.dir.join(&dep_entry.file)).map_err(io_err)?;
            let dep_raw = parse_image(&dep_bytes)?;
            if dep_raw.seq != dep_seq {
                return Err(ColumnarError::Corrupt(format!(
                    "dependency image seq {} does not match manifest seq {dep_seq}",
                    dep_raw.seq
                )));
            }
            deps.insert(dep_seq, dep_raw);
        }
        let (table, prov, _) = resolve_image(raw, &deps, io)?;
        Ok(Some((table, prov)))
    }

    /// The manifest's current entries (`None` before the first publish).
    pub fn manifest(&self) -> Result<Option<ImageManifest>> {
        ImageManifest::load(&self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Tuple;

    fn table(rows: i64, block_rows: usize) -> StableTable {
        let meta = TableMeta::new(
            "t",
            Schema::from_pairs(&[
                ("k", ValueType::Int),
                ("s", ValueType::Str),
                ("d", ValueType::Double),
            ]),
            vec![0],
        );
        let rows: Vec<Tuple> = (0..rows)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(format!("tag{}", i % 3)),
                    Value::Double(i as f64 * 0.5),
                ]
            })
            .collect();
        StableTable::bulk_load(
            meta,
            TableOptions {
                block_rows,
                compressed: true,
            },
            &rows,
        )
        .unwrap()
    }

    #[test]
    fn image_roundtrip_preserves_rows_and_blocks() {
        let t = table(1000, 128);
        let bytes = encode_image(&t, 42);
        let io = IoTracker::new();
        let (back, seq) = decode_image(&bytes, &io).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(back.row_count(), t.row_count());
        assert_eq!(back.num_blocks(), t.num_blocks());
        assert_eq!(back.meta().name, "t");
        assert_eq!(back.schema(), t.schema());
        assert_eq!(back.sort_key(), t.sort_key());
        assert_eq!(back.total_bytes(), t.total_bytes(), "blocks kept encoded");
        // load charged one read per block
        assert_eq!(
            io.stats().blocks_read,
            (t.num_blocks() * t.num_columns()) as u64
        );
        assert_eq!(io.stats().bytes_read, t.total_bytes());
        let io2 = IoTracker::new();
        assert_eq!(back.scan_all(&io2).unwrap(), t.scan_all(&io2).unwrap());
        // sparse index and block bounds survive
        assert_eq!(
            back.sid_range(Some(&[Value::Int(300)]), None),
            t.sid_range(Some(&[Value::Int(300)]), None)
        );
        assert_eq!(back.block_sk_bounds(2), t.block_sk_bounds(2));
    }

    #[test]
    fn corrupt_image_is_error_never_panic() {
        let t = table(200, 64);
        let bytes = encode_image(&t, 7);
        let io = IoTracker::new();
        // flip every byte position one at a time on a sparse stride
        for i in (0..bytes.len()).step_by(13) {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            let _ = decode_image(&bad, &io); // must not panic
        }
        // truncations
        for n in [0, 7, 15, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_image(&bytes[..n], &io).is_err());
        }
        // checksum catches a body flip
        let mut bad = bytes.clone();
        bad[40] ^= 1;
        assert!(matches!(
            decode_image(&bad, &io),
            Err(ColumnarError::Corrupt(_))
        ));
    }

    #[test]
    fn store_publish_and_load() {
        let dir = std::env::temp_dir().join(format!("pdt-img-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ImageStore::open(&dir).unwrap();
        let io = IoTracker::new();
        assert!(store.load("t", 0, 5, &io).unwrap().is_none(), "no manifest");

        let t = table(500, 128);
        store.publish_with_reuse("t", 0, 5, &t, &[]).unwrap();
        let (loaded, _) = store.load("t", 0, 5, &io).unwrap().expect("image at seq 5");
        assert_eq!(loaded.row_count(), 500);
        // wrong expected seq (marker behind manifest = crash window) → None
        assert!(store.load("t", 0, 4, &io).unwrap().is_none());
        assert!(store.load("t", 0, 6, &io).unwrap().is_none());
        // republish at a later seq: the previous image survives (it is the
        // recovery base if we crash before the new marker lands)
        let t2 = table(600, 128);
        store.publish_with_reuse("t", 0, 9, &t2, &[]).unwrap();
        assert_eq!(
            store.load("t", 0, 5, &io).unwrap().unwrap().0.row_count(),
            500,
            "previous image stays loadable across the crash window"
        );
        assert_eq!(
            store.load("t", 0, 9, &io).unwrap().unwrap().0.row_count(),
            600
        );
        // a third publish prunes everything below the previous entry
        let t3 = table(700, 128);
        store.publish_with_reuse("t", 0, 12, &t3, &[]).unwrap();
        assert!(store.load("t", 0, 5, &io).unwrap().is_none());
        let mut files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".img"))
            .collect();
        files.sort();
        assert_eq!(
            files,
            vec!["t.p0.12.img".to_string(), "t.p0.9.img".to_string()]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_publish_reuses_blocks_and_resolves_on_load() {
        let dir = std::env::temp_dir().join(format!("pdt-reuse-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ImageStore::open(&dir).unwrap();
        let io = IoTracker::new();
        let t = table(500, 128); // 4 blocks

        // Full publish at seq 5: no provenance, everything written inline.
        let stats = store.publish_with_reuse("t", 0, 5, &t, &[]).unwrap();
        assert_eq!(stats.blocks_reused, 0);
        assert_eq!(
            stats.blocks_written as usize,
            t.num_blocks() * t.num_columns()
        );
        assert!(stats.bytes_written > 0 && stats.bytes_reused == 0);

        // Incremental publish at seq 9: blocks 0 and 3 carry over from gen 5,
        // blocks 1 and 2 were rewritten (no provenance).
        let prov = vec![Some((5, 0)), None, None, Some((5, 3))];
        let stats = store.publish_with_reuse("t", 0, 9, &t, &prov).unwrap();
        assert_eq!(stats.blocks_reused as usize, 2 * t.num_columns());
        assert_eq!(stats.blocks_written as usize, 2 * t.num_columns());
        assert!(stats.bytes_reused > 0);

        // Loading seq 9 resolves the refs against gen 5 and reports per-block
        // physical provenance.
        let (back, back_prov) = store.load("t", 0, 9, &io).unwrap().expect("image at seq 9");
        let io2 = IoTracker::new();
        assert_eq!(back.scan_all(&io2).unwrap(), t.scan_all(&io2).unwrap());
        assert_eq!(back_prov, vec![(5, 0), (9, 1), (9, 2), (5, 3)]);
        // the manifest records the dependency
        let m = store.manifest().unwrap().unwrap();
        assert_eq!(m.get("t", 0, 9).unwrap().deps, vec![5]);

        // A ref-bearing image must be loaded through its store, not decoded
        // standalone.
        let bytes = fs::read(dir.join("t.p0.9.img")).unwrap();
        assert!(matches!(
            decode_image(&bytes, &io),
            Err(ColumnarError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_generations_referenced_by_newer_manifests() {
        let dir = std::env::temp_dir().join(format!("pdt-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ImageStore::open(&dir).unwrap();
        let io = IoTracker::new();
        let t = table(500, 128); // 4 blocks

        store.publish_with_reuse("t", 0, 5, &t, &[]).unwrap();
        let prov = vec![Some((5, 0)), None, None, Some((5, 3))];
        store.publish_with_reuse("t", 0, 9, &t, &prov).unwrap();
        // Another incremental on top; refs stay flattened at gen 5 for the
        // untouched blocks, so this generation depends on both 5 and 9.
        let prov2 = vec![Some((5, 0)), Some((9, 1)), None, Some((5, 3))];
        store.publish_with_reuse("t", 0, 12, &t, &prov2).unwrap();

        // "Keep newest two" would drop seq 5, but both kept generations
        // reference its blocks — the shared-block case. It must survive and
        // still resolve.
        let img_files = |dir: &Path| -> Vec<String> {
            let mut f: Vec<_> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|n| n.ends_with(".img"))
                .collect();
            f.sort();
            f
        };
        assert_eq!(
            img_files(&dir),
            vec!["t.p0.12.img", "t.p0.5.img", "t.p0.9.img"]
        );
        let (back, _) = store.load("t", 0, 12, &io).unwrap().unwrap();
        let io2 = IoTracker::new();
        assert_eq!(back.scan_all(&io2).unwrap(), t.scan_all(&io2).unwrap());

        // Two self-contained publishes release the shared generations: after
        // seqs 15 and 18 nothing references 5/9/12 and they are pruned.
        store.publish_with_reuse("t", 0, 15, &t, &[]).unwrap();
        store.publish_with_reuse("t", 0, 18, &t, &[]).unwrap();
        assert_eq!(img_files(&dir), vec!["t.p0.15.img", "t.p0.18.img"]);
        assert!(store.load("t", 0, 5, &io).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_swap_is_atomic_and_multi_entry() {
        let dir = std::env::temp_dir().join(format!("pdt-man-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut m = ImageManifest::default();
        m.set(
            "orders",
            0,
            ImageEntry {
                seq: 3,
                file: "orders.p0.3.img".into(),
                deps: vec![],
            },
        );
        m.set(
            "orders",
            1,
            ImageEntry {
                seq: 4,
                file: "orders.p1.4.img".into(),
                deps: vec![],
            },
        );
        // two images of one partition coexist (the crash-window pair)
        m.set(
            "orders",
            1,
            ImageEntry {
                seq: 6,
                file: "orders.p1.6.img".into(),
                deps: vec![4],
            },
        );
        m.save(&dir).unwrap();
        let back = ImageManifest::load(&dir).unwrap().unwrap();
        assert_eq!(back, m);
        assert_eq!(back.get("orders", 1, 4).unwrap().seq, 4);
        assert_eq!(back.latest("orders", 1).unwrap().seq, 6);
        assert!(back.get("orders", 2, 4).is_none());
        // no stray temp file left behind
        assert!(!dir.join(format!("{MANIFEST_FILE}.tmp")).exists());
        // corrupt header is an error, not a panic
        fs::write(dir.join(MANIFEST_FILE), "not a manifest\n").unwrap();
        assert!(ImageManifest::load(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Formats only builds before the current WAL marker format wrote: a
    /// v2 image and a v1 manifest are refused as corrupt, never read.
    #[test]
    fn v2_images_and_v1_manifests_are_corrupt() {
        let mut v2 = encode_image(&table(200, 64), 7);
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        let io = IoTracker::new();
        assert!(matches!(
            decode_image(&v2, &io),
            Err(ColumnarError::Corrupt(_))
        ));
        let dir = std::env::temp_dir().join(format!("pdt-old-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ImageStore::open(&dir).unwrap();
        fs::write(dir.join("t.p0.7.img"), &v2).unwrap();
        let v1 = "pdt-images v1\nimage\t7\t0\tt.p0.7.img\tt\n";
        fs::write(dir.join(MANIFEST_FILE), v1).unwrap();
        assert!(matches!(
            store.load("t", 0, 7, &io),
            Err(ColumnarError::Corrupt(_))
        ));
        // a current manifest naming the v2 image: the image is refused
        let mut m = ImageManifest::default();
        m.set(
            "t",
            0,
            ImageEntry {
                seq: 7,
                file: "t.p0.7.img".into(),
                deps: vec![],
            },
        );
        m.save(&dir).unwrap();
        assert!(matches!(
            store.load("t", 0, 7, &io),
            Err(ColumnarError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A v3 image, written by the build before [`Encoding::BitPacked`]
    /// existed: [`v3_rows`] as table `fx` in 32-row blocks, at sequence 3.
    const V3_IMAGE: &[u8] = include_bytes!("../testdata/image_v3.img");

    fn v3_rows() -> Vec<Tuple> {
        (0..96i64)
            .map(|i| {
                vec![
                    Value::Int(i * 3),
                    Value::Int((i * 2_654_435_761) % (1 << 20)),
                    Value::Date(19_000 + (i / 32) as i32),
                    Value::Str(format!("tag{}", i % 3)),
                ]
            })
            .collect()
    }

    #[test]
    fn v3_images_still_load() {
        assert_eq!(V3_IMAGE[4..8], 3u32.to_le_bytes());
        let io = IoTracker::new();
        let (t, seq) = decode_image(V3_IMAGE, &io).unwrap();
        assert_eq!(seq, 3);
        assert_eq!(t.scan_all(&io).unwrap(), v3_rows());
        let codecs: std::collections::HashSet<Encoding> = (0..t.num_columns())
            .flat_map(|c| t.column_blocks(c).iter().map(|b| b.encoding))
            .collect();
        assert_eq!(
            codecs,
            [Encoding::DeltaVarint, Encoding::Rle, Encoding::GlobalCode].into()
        );
    }

    #[test]
    fn bit_packed_tag_in_a_v3_image_is_corrupt() {
        let io = IoTracker::new();
        let (t, _) = decode_image(V3_IMAGE, &io).unwrap();
        // find column 1's first block slot: len, vtype, tag, payload
        let b = &t.column_blocks(1)[0];
        let mut slot = (b.len as u32).to_le_bytes().to_vec();
        slot.extend([vtype_tag(b.vtype), b.encoding as u8]);
        slot.extend_from_slice(&(b.payload.len() as u32).to_le_bytes());
        slot.extend_from_slice(&b.payload);
        let at = V3_IMAGE
            .windows(slot.len())
            .position(|w| w == slot)
            .expect("the block's slot is in the image");
        let mut bad = V3_IMAGE.to_vec();
        bad[at + 5] = Encoding::BitPacked as u8;
        let n = bad.len();
        let sum = fnv1a(&bad[8..n - 8]);
        bad[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_image(&bad, &io).err(),
            Some(ColumnarError::Corrupt(
                "encoding tag 5 in a v3 image".into()
            ))
        );
    }

    #[test]
    fn fresh_images_are_v4_and_bit_pack_wide_random_ints() {
        let meta = TableMeta::new(
            "r",
            Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)]),
            vec![0],
        );
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let rows: Vec<Tuple> = (0..1000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                vec![Value::Int(i), Value::Int((x >> 20) as i64)]
            })
            .collect();
        let opts = TableOptions {
            block_rows: 256,
            compressed: true,
        };
        let t = StableTable::bulk_load(meta, opts, &rows).unwrap();
        let codecs = |t: &StableTable, c| -> Vec<Encoding> {
            t.column_blocks(c).iter().map(|b| b.encoding).collect()
        };
        assert_eq!(codecs(&t, 0), [Encoding::DeltaVarint; 4]);
        assert_eq!(codecs(&t, 1), [Encoding::BitPacked; 4]);
        let bytes = encode_image(&t, 5);
        assert_eq!(bytes[4..8], 4u32.to_le_bytes());
        let io = IoTracker::new();
        let (back, seq) = decode_image(&bytes, &io).unwrap();
        assert_eq!(seq, 5);
        assert_eq!(codecs(&back, 1), [Encoding::BitPacked; 4]);
        assert_eq!(back.total_bytes(), t.total_bytes());
        assert_eq!(back.scan_all(&io).unwrap(), rows);
    }

    /// Incremental compaction keeps referencing blocks of a generation a
    /// v3 build published: the v4 image resolves them on load.
    #[test]
    fn a_v4_image_references_blocks_of_a_v3_generation() {
        let dir = std::env::temp_dir().join(format!("pdt-v3ref-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ImageStore::open(&dir).unwrap();
        fs::write(dir.join("fx.p0.3.img"), V3_IMAGE).unwrap();
        let mut m = ImageManifest::default();
        let entry = ImageEntry {
            seq: 3,
            file: "fx.p0.3.img".into(),
            deps: vec![],
        };
        m.set("fx", 0, entry);
        m.save(&dir).unwrap();
        let io = IoTracker::new();
        let (t, prov) = store
            .load("fx", 0, 3, &io)
            .unwrap()
            .expect("v3 image at seq 3");
        assert_eq!(prov, vec![(3, 0), (3, 1), (3, 2)]);
        // a range compaction rewrote block 1 and kept blocks 0 and 2
        let stats = store
            .publish_with_reuse("fx", 0, 9, &t, &[Some((3, 0)), None, Some((3, 2))])
            .unwrap();
        assert_eq!(stats.blocks_reused as usize, 2 * t.num_columns());
        assert_eq!(
            fs::read(dir.join("fx.p0.9.img")).unwrap()[4..8],
            4u32.to_le_bytes()
        );
        let (back, prov) = store
            .load("fx", 0, 9, &io)
            .unwrap()
            .expect("v4 image at seq 9");
        assert_eq!(prov, vec![(3, 0), (9, 1), (3, 2)]);
        assert_eq!(back.scan_all(&io).unwrap(), v3_rows());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_table_image_roundtrip() {
        let meta = TableMeta::new(
            "empty",
            Schema::from_pairs(&[("k", ValueType::Int)]),
            vec![0],
        );
        let t = StableTable::bulk_load(meta, TableOptions::default(), &[]).unwrap();
        let io = IoTracker::new();
        let (back, seq) = decode_image(&encode_image(&t, 1), &io).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(back.row_count(), 0);
        assert_eq!(back.scan_all(&io).unwrap(), Vec::<Tuple>::new());
    }
}
